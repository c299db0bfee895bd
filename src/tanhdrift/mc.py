"""Seeded Euler-Maruyama simulation of the log-price SDE.

Serves as the stochastic oracle for the closed-form results: path
ensembles, terminal values, and Monte Carlo estimates of
regime-transition probabilities (terminal-time classification, not
first passage).

Randomness is counter-based: step k of a run draws its increments from
an independent Philox substream, ``Philox(seed).jumped(k)``, and path p
uses the p-th normal of that block. Draws therefore do not depend on
iteration order, and the same (params, config) reproduce ensembles
bit-for-bit on any platform; generating paths in parallel cannot change
the result. A run builds one bit generator and reaches each step's
substream by resetting it to the seed's state and advancing it by
k * 2**128 draws, which is what ``jumped(k)`` does to a copy.

Paths may also carry their own parameters and start: a sequence of one
ModelParams per path and a tuple of one x0 per path. A synthetic
universe runs this way as one ensemble, name i being path i, so name i
uses normal i of each step's substream.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import Direction, ModelParams, _require_starting_side, _whole_steps

__all__ = [
    "SimConfig",
    "PathEnsemble",
    "MCEstimate",
    "simulate",
    "terminal_values",
    "mc_transition_prob",
    "write_ensemble_csv",
]


@dataclass(frozen=True)
class SimConfig:
    """Discretization and seeding of one simulation run.

    dt and horizon are in years; horizon must be an integer number of
    steps (within 1e-9 relative). x0 is one start for every path, or a
    tuple of one start per path.
    """

    n_paths: int
    dt: float
    horizon: float
    seed: int
    x0: float | tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ValidationError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not (self.dt > 0):
            raise ValidationError(f"dt must be > 0, got {self.dt}")
        _whole_steps(self.horizon, self.dt)
        if not (self.dt < self.horizon):
            raise ValidationError(f"dt={self.dt} must be smaller than horizon={self.horizon}")
        if isinstance(self.x0, tuple) and len(self.x0) != self.n_paths:
            raise ValidationError(f"{len(self.x0)} starts x0 for {self.n_paths} paths")

    @property
    def n_steps(self) -> int:
        return _whole_steps(self.horizon, self.dt)


@dataclass
class PathEnsemble:
    """Simulated log-price paths on a uniform time grid.

    paths has shape (n_paths, n_steps + 1); every path starts at its
    configured x0 in column 0. params is what was simulated: one
    ModelParams, or one per path.
    """

    times: np.ndarray
    paths: np.ndarray
    params: ModelParams | Sequence[ModelParams]
    seed: int


@dataclass(frozen=True)
class MCEstimate:
    """Point estimate with its standard error of the mean."""

    value: float
    std_error: float
    n: int

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise ValidationError(f"std_error must be >= 0, got {self.std_error}")
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")


def _step_normals(seed: int, steps, n: int):
    """Yield n standard normals for each step k in steps, from the Philox
    substream Philox(seed).jumped(k), through one bit generator.

    The state is reset before every step, not advanced from the last one,
    because the ziggurat consumes a variable number of draws.
    """
    bits = np.random.Philox(seed)
    gen = np.random.Generator(bits)
    start = bits.state
    for k in steps:
        bits.state = start
        bits.advance(k << 128)
        yield gen.standard_normal(n)


def _coefficients(params: ModelParams | Sequence[ModelParams], cfg: SimConfig):
    """nu, x_star, mu_tilde dt and sigma sqrt(dt): scalars, or one array
    entry per path, each computed as the scalar case computes it."""
    sqdt = math.sqrt(cfg.dt)
    if isinstance(params, ModelParams):
        return params.nu, params.x_star, params.mu_tilde * cfg.dt, params.sigma * sqdt
    if len(params) != cfg.n_paths:
        raise ValidationError(f"{len(params)} parameter sets for {cfg.n_paths} paths")
    rows = [(p.nu, p.x_star, p.mu_tilde * cfg.dt, p.sigma * sqdt) for p in params]
    return tuple(np.array(col, dtype=float) for col in zip(*rows))


def _run(params: ModelParams | Sequence[ModelParams], cfg: SimConfig, store: bool):
    n, steps = cfg.n_paths, cfg.n_steps
    nu, x_star, mu_dt, sig_sqdt = _coefficients(params, cfg)
    drift = bool(np.any((nu > 0.0) & (mu_dt != 0.0)))

    x = np.full(n, cfg.x0, dtype=float)
    out = None
    if store:
        out = np.empty((n, steps + 1), dtype=float)
        out[:, 0] = x
    scratch = np.empty(n, dtype=float)
    for k, z in enumerate(_step_normals(cfg.seed, range(steps), n)):
        if drift:
            np.subtract(x, x_star, out=scratch)
            scratch *= nu
            np.tanh(scratch, out=scratch)
            scratch *= mu_dt
            x += scratch
        z *= sig_sqdt
        x += z
        if store:
            out[:, k + 1] = x
    if not np.all(np.isfinite(x)):
        raise ValidationError("simulation produced non-finite values")
    return x, out


def simulate(params: ModelParams | Sequence[ModelParams], cfg: SimConfig) -> PathEnsemble:
    """Euler-Maruyama integration, full grid stored.

    X_{k+1} = X_k + mu(X_k) dt + sigma sqrt(dt) Z_k with the Z_k drawn
    as described in the module docstring. params is one ModelParams for
    every path, or a sequence of one per path (each validated when it
    was built); path i of a per-path run equals path i of a scalar run
    of params[i] with the same n_paths, seed and start. Memory is
    O(n_paths * n_steps); use :func:`terminal_values` or the estimators
    when only time-T values are needed.
    """
    _, out = _run(params, cfg, store=True)
    times = np.arange(cfg.n_steps + 1, dtype=float) * cfg.dt
    return PathEnsemble(times=times, paths=out, params=params, seed=cfg.seed)


def terminal_values(params: ModelParams | Sequence[ModelParams], cfg: SimConfig) -> np.ndarray:
    """Time-T log-prices only; O(n_paths) memory, same draws as simulate."""
    x, _ = _run(params, cfg, store=False)
    return x


def mc_transition_prob(params: ModelParams, cfg: SimConfig, direction: Direction) -> MCEstimate:
    """Fraction of paths ending on the target side of x_star at time T.

    Terminal-time comparison (X_T <= x_star counts as distressed, >=
    as healthy), matching the closed-form definition; not a
    first-passage statistic. std_error is sqrt(p (1 - p) / n). Takes
    one ModelParams and one start for all paths; per-path inputs raise
    ValidationError.
    """
    if not isinstance(params, ModelParams) or not isinstance(cfg.x0, numbers.Real):
        raise ValidationError(
            "mc_transition_prob takes one ModelParams and one start x0 for all paths"
        )
    _require_starting_side(cfg.x0, params.x_star, direction)
    xt = terminal_values(params, cfg)
    if direction is Direction.HEALTHY_TO_DISTRESSED:
        hits = xt <= params.x_star
    else:
        hits = xt >= params.x_star
    p = float(np.mean(hits))
    se = math.sqrt(p * (1.0 - p) / cfg.n_paths)
    return MCEstimate(value=p, std_error=se, n=cfg.n_paths)


def write_ensemble_csv(ensemble: PathEnsemble, path) -> None:
    """Dump an ensemble as rows of (path_id, step, x) for offline inspection."""
    steps = [f",{k}," for k in range(ensemble.paths.shape[1])]
    with open(path, "w", newline="") as fh:
        fh.write("path_id,step,x\n")
        for p, row in enumerate(ensemble.paths):
            pid = str(p)
            fh.write("".join([f"{pid}{k}{x!r}\n" for k, x in zip(steps, row.tolist())]))
