"""Closed-form mathematics of the tanh-drift log-price diffusion.

The log price X follows dX = mu(X) dt + sigma dW with
mu(x) = nu * sigma**2 * tanh(nu * (x - x_star)): the drift interpolates
smoothly between +mu_tilde far above the threshold x_star (healthy
regime) and -mu_tilde far below it (distressed regime), where
mu_tilde = nu * sigma**2. The threshold price is S_star = exp(x_star).

The model is exactly solvable: the transition density is elementary
(a cosh-tilted Gaussian, equivalently an equal-variance mixture of two
Gaussians drifting at +-mu_tilde), so the finite-horizon probability of
switching regimes is a mixture of two normal CDFs, and its large-horizon
limit has the logistic closed form 1 / (1 + (S0/S_star)**(2*nu)).
Everything here is a pure function; all cosh ratios and power laws are
evaluated in log space so large nu * |x - x_star| cannot overflow.

Time is measured in years throughout (sigma and mu_tilde are per annum).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_expit, ndtr

from .errors import ValidationError

__all__ = [
    "Direction",
    "ModelParams",
    "DensityQuery",
    "RegimeProbability",
    "drift",
    "potential",
    "schrodinger_potential",
    "transition_density",
    "density_profile",
    "density_normalization",
    "asymptotic_density",
    "regime_transition_prob_finite",
    "regime_transition_probs_finite",
    "default_prob_asymptotic",
]

_LN2 = math.log(2.0)
_NORM_NODES = 4001  # trapezoid nodes per window of density_normalization


class Direction(enum.Enum):
    """Which regime switch a probability refers to."""

    HEALTHY_TO_DISTRESSED = "healthy-to-distressed"
    DISTRESSED_TO_HEALTHY = "distressed-to-healthy"


@dataclass(frozen=True)
class ModelParams:
    """Free parameters of the model.

    nu is the dimensionless regime-sharpness parameter (nu = 0 is the
    degenerate driftless case), sigma the annualized volatility, x_star
    the log-price threshold separating the regimes. mu_tilde and s_star
    are always recomputed from these, never stored.

    sigma = 0 is admitted as a degenerate noiseless case for the path
    integrator; operations that need a nondegenerate density reject it.
    """

    nu: float
    sigma: float
    x_star: float

    def __post_init__(self) -> None:
        for name in ("nu", "sigma", "x_star"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v!r}")
        if self.nu < 0:
            raise ValidationError(f"nu must be >= 0, got {self.nu}")
        if self.sigma < 0:
            raise ValidationError(f"sigma must be >= 0, got {self.sigma}")

    @property
    def mu_tilde(self) -> float:
        """Asymptotic drift magnitude nu * sigma**2 (per year)."""
        return self.nu * self.sigma * self.sigma

    @property
    def s_star(self) -> float:
        """Threshold price exp(x_star)."""
        return math.exp(self.x_star)

    @classmethod
    def from_threshold_price(cls, nu: float, sigma: float, s_star: float) -> "ModelParams":
        if s_star <= 0:
            raise ValidationError(f"s_star must be > 0, got {s_star}")
        return cls(nu=nu, sigma=sigma, x_star=math.log(s_star))


@dataclass(frozen=True)
class DensityQuery:
    """Point (x, x0, t) at which the transition density is evaluated."""

    x: float
    x0: float
    t: float

    def __post_init__(self) -> None:
        if not (self.t > 0):
            raise ValidationError(f"elapsed time t must be > 0, got {self.t}")


@dataclass(frozen=True)
class RegimeProbability:
    """A regime-switch probability, finite-horizon or asymptotic.

    horizon is the time T in years, or None for the T -> infinity limit.
    """

    value: float
    direction: Direction
    horizon: float | None

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0):
            raise ValidationError(f"probability out of [0, 1]: {self.value}")

    @property
    def is_asymptotic(self) -> bool:
        return self.horizon is None


def _log_cosh(z):
    """log(cosh(z)), overflow-free: |z| + log1p(exp(-2|z|)) - log 2."""
    az = np.abs(z)
    return az + np.log1p(np.exp(-2.0 * az)) - _LN2


def _sech2(z):
    """sech(z)**2 via 2*exp(-|z|)/(1 + exp(-2|z|)), overflow-free."""
    e = np.exp(-np.abs(z))
    s = 2.0 * e / (1.0 + e * e)
    return s * s


def drift(params: ModelParams, x):
    """Drift mu(x) = mu_tilde * tanh(nu * (x - x_star)), in 1/years.

    Odd-symmetric about x_star and bounded by +-mu_tilde. Accepts a
    scalar or an ndarray of log-prices.
    """
    return params.mu_tilde * np.tanh(params.nu * (np.asarray(x, dtype=float) - params.x_star))


def potential(params: ModelParams, x):
    """Langevin potential V with drift = -dV/dx.

    V(x) = -sigma**2 * log(cosh(nu * (x - x_star))), the integration
    constant fixed to V(x_star) = 0. Asymptotically a wedge
    ~ -mu_tilde * |x - x_star| with its smoothed cusp (maximum 0) at
    x_star.
    """
    z = params.nu * (np.asarray(x, dtype=float) - params.x_star)
    return -params.sigma * params.sigma * _log_cosh(z)


def schrodinger_potential(params: ModelParams, x):
    """h(x)**2 + h'(x) with h = mu / sigma**2; identically nu**2.

    h = nu * tanh(nu * (x - x_star)) (sigma cancels), so
    h**2 + h' = nu**2 * (tanh**2 + sech**2) = nu**2 at every x. This is
    the constant-potential identity that makes the model exactly
    solvable; the function evaluates both terms rather than returning
    the constant so that tests can check the identity pointwise.
    """
    z = params.nu * (np.asarray(x, dtype=float) - params.x_star)
    nu2 = params.nu * params.nu
    t = np.tanh(z)
    return nu2 * t * t + nu2 * _sech2(z)


def _require_diffusive(params: ModelParams) -> None:
    if params.sigma == 0.0:
        raise ValidationError("sigma = 0 has no transition density (degenerate case)")


def _whole_steps(horizon: float, dt: float) -> int:
    """horizon / dt as a step count, for dt > 0; ValidationError unless
    horizon > 0 and the count is a whole one."""
    if not (horizon > 0):
        raise ValidationError(f"horizon must be > 0, got {horizon}")
    n = round(horizon / dt)
    if n < 1 or abs(n * dt - horizon) > 1e-9 * horizon:
        raise ValidationError(f"horizon/dt = {horizon / dt} is not a whole step count")
    return n


def _require_starting_side(x0, x_star: float, direction: Direction) -> None:
    """Every x0 (a scalar or an array) must lie on the side of x_star
    that direction starts from; x0 = x_star is on both sides. The first
    x0 that does not, in input order, is named."""
    x0 = np.asarray(x0, dtype=float)
    healthy = direction is Direction.HEALTHY_TO_DISTRESSED
    wrong = x0 < x_star if healthy else x0 > x_star
    if wrong.any():
        need, got = (">=", "<") if healthy else ("<=", ">")
        raise ValidationError(
            f"{direction.value} requires x0 {need} x_star, "
            f"got x0={float(x0.flat[wrong.argmax()])} {got} {x_star}"
        )


def density_profile(params: ModelParams, x, x0: float, t: float):
    """Transition density evaluated at an array of terminal log-prices.

    Vectorized form of :func:`transition_density`, evaluated as the
    equal-variance mixture it equals,
    w_up N(x; x0 + mu_tilde t, sigma**2 t) + w_dn N(x; x0 - mu_tilde t, sigma**2 t)
    with w_up, w_dn = expit(+-2 nu (x0 - x_star)), summed in log space
    (logaddexp of the two log terms). No term grows with nu sigma sqrt(t),
    so nothing cancels: the cosh-ratio form subtracts terms of size
    (nu sigma sqrt(t))**2 and loses that many digits.
    """
    _require_diffusive(params)
    if not (t > 0):
        raise ValidationError(f"elapsed time t must be > 0, got {t}")
    x = np.asarray(x, dtype=float)
    two_sig2t = 2.0 * params.sigma * params.sigma * t
    lam = 2.0 * params.nu * (x0 - params.x_star)
    drift_t = params.mu_tilde * t
    log_up = log_expit(lam) - (x - x0 - drift_t) ** 2 / two_sig2t
    log_dn = log_expit(-lam) - (x - x0 + drift_t) ** 2 / two_sig2t
    log_norm = 0.5 * math.log(2.0 * math.pi * t) + math.log(params.sigma)
    return np.exp(np.logaddexp(log_up, log_dn) - log_norm)


def transition_density(params: ModelParams, q: DensityQuery) -> float:
    """Probability density of reaching log-price x at time t from x0 at 0.

    (1 / (sqrt(2 pi t) sigma)) * cosh(nu (x - x_star)) / cosh(nu (x0 - x_star))
    * exp(-(x - x0)**2 / (2 sigma**2 t) - sigma**2 nu**2 t / 2),
    normalized to 1 over x. Nonnegative everywhere.
    """
    return float(density_profile(params, q.x, q.x0, q.t))


def asymptotic_density(params: ModelParams, q: DensityQuery, branch: int) -> float:
    """Far-regime Gaussian limit of the transition density.

    branch = +1 gives the density of a Brownian motion with constant
    drift +mu_tilde (deep healthy regime), branch = -1 the -mu_tilde
    one (deep distressed regime). For nu = 0 both coincide with the
    exact density.
    """
    _require_diffusive(params)
    if branch not in (1, -1):
        raise ValidationError(f"branch must be +1 or -1, got {branch!r}")
    sig2t = params.sigma * params.sigma * q.t
    dx = q.x - q.x0 - branch * params.mu_tilde * q.t
    return math.exp(-dx * dx / (2.0 * sig2t)) / (params.sigma * math.sqrt(2.0 * math.pi * q.t))


def density_normalization(params: ModelParams, x0: float, t: float) -> float:
    """Trapezoid integral of the transition density around its two centres.

    Equals 1 up to truncation and rounding error; exposed as a
    self-check for the CLI and tests. The density is a mixture of two
    Gaussians of standard deviation sigma sqrt(t) centred at
    x0 +- mu_tilde t (see :func:`regime_transition_prob_finite`). Each
    centre gets a window of 10 standard deviations either side, so the
    mass left out is below 1e-20; the two windows merge into one where
    they overlap. The node spacing is thus at most sigma sqrt(t) / 100
    whatever nu, sigma and t are, and the rule on this smooth integrand
    with Gaussian tails converges exponentially. The window never
    stretches to x_star, which would thin the nodes under a narrow peak
    far from it.
    """
    _require_diffusive(params)
    if not (t > 0):
        raise ValidationError(f"elapsed time t must be > 0, got {t}")
    w = 10.0 * params.sigma * math.sqrt(t)
    m = params.mu_tilde * t
    if m <= w:
        windows = [(x0 - m - w, x0 + m + w)]
    else:
        windows = [(x0 - m - w, x0 - m + w), (x0 + m - w, x0 + m + w)]
    total = 0.0
    for lo, hi in windows:
        x = np.linspace(lo, hi, _NORM_NODES)
        y = density_profile(params, x, x0, t)
        total += float(np.trapezoid(y, dx=(hi - lo) / (_NORM_NODES - 1)))
    return total


def regime_transition_probs_finite(
    params: ModelParams, x0, horizon, direction: Direction
) -> np.ndarray:
    """Probability of ending on the other side of x_star at time T.

    Terminal-time classification: the integral of the transition density
    over x <= x_star (healthy -> distressed) or x >= x_star (the
    reverse). The density is exactly the equal-variance mixture
    w_up N(x0 + mu_tilde T, sigma**2 T) + w_dn N(x0 - mu_tilde T, sigma**2 T)
    with w_up, w_dn = expit(+-2 nu (x0 - x_star)), so healthy -> distressed
    is w_up Phi(a) + w_dn Phi(b) with a, b = (x_star - x0 -+ mu_tilde T) / (sigma sqrt T);
    the reverse direction is its mirror image about x_star. x0 must lie
    on the starting side; x0 = x_star is accepted and gives exactly 0.5
    (the density from the threshold is even about it).

    x0 and horizon are scalars or arrays, broadcast against each other,
    and the result has their broadcast shape. The first horizon that is
    not > 0, or the first x0 on the wrong side, in input order, is named
    in the ValidationError.
    """
    _require_diffusive(params)
    horizon = np.asarray(horizon, dtype=float)
    bad = ~(horizon > 0)
    if bad.any():
        raise ValidationError(f"horizon must be > 0, got {float(horizon.flat[bad.argmax()])}")
    _require_starting_side(x0, params.x_star, direction)
    d = np.abs(np.asarray(x0, dtype=float) - params.x_star)  # mirror one direction onto the other
    drift_t = params.mu_tilde * horizon
    s = params.sigma * np.sqrt(horizon)
    lam = 2.0 * params.nu * d
    # scipy's expit, not 1/(1 + np.exp(-lam)): numpy's SIMD exp differs from
    # libm on long arrays, and a value must not depend on the array's length
    p = expit(lam) * ndtr(-(d + drift_t) / s) + expit(-lam) * ndtr((drift_t - d) / s)
    return np.clip(np.where(d == 0.0, 0.5, p), 0.0, 1.0)


def regime_transition_prob_finite(
    params: ModelParams, x0: float, horizon: float, direction: Direction
) -> RegimeProbability:
    """:func:`regime_transition_probs_finite` at one start and one horizon."""
    p = float(regime_transition_probs_finite(params, x0, horizon, direction))
    return RegimeProbability(p, direction, horizon)


def default_prob_asymptotic(
    params: ModelParams, s0: float, direction: Direction
) -> RegimeProbability:
    """Large-horizon limit of the regime-switch probability.

    1 / (1 + (S0/S_star)**(2 nu)) for healthy -> distressed (readable as
    the probability of default: the path never leaves distress again),
    and 1 / (1 + (S_star/S0)**(2 nu)) for the reverse. Evaluated as a
    logistic function of 2 nu (log S0 - x_star), so extreme price ratios
    cannot overflow.
    """
    if not (s0 > 0):
        raise ValidationError(f"s0 must be > 0, got {s0}")
    x0 = math.log(s0)
    _require_starting_side(x0, params.x_star, direction)
    lam = 2.0 * params.nu * (x0 - params.x_star)
    if direction is Direction.HEALTHY_TO_DISTRESSED:
        value = float(expit(-lam))
    else:
        value = float(expit(lam))
    return RegimeProbability(value, direction, None)
