"""Finite-difference drift-diffusion solver, independent of the closed form.

Solves d/dt P = (sigma**2 / 2) d2/dx2 P - d/dx [mu(x) P] by
Crank-Nicolson time stepping with the advection term in conservative
centered-flux form, so the analytic transition density can be validated
without assuming it. Dirichlet-zero far boundaries; the margin
precondition on the grid keeps the mass that would reach them below
1e-6.

With L the tridiagonal operator on the interior nodes, a step solves
(I - dt/2 L) u' = (I + dt/2 L) u. Since I + dt/2 L = 2I - A for
A = I - dt/2 L, that is u' = 2 A^-1 u - u, and the right-hand side is
never formed.

The step runs on a symmetric operator similar to L. Under the Peclet
bound the off-diagonals of L are positive, so with D = diag(d),
ln d[i+1] - ln d[i] = (ln upper[i] - ln lower[i+1]) / 2, the matrix
D L D^-1 is symmetric with off-diagonals sqrt(upper[i] lower[i+1]).
D A D^-1 / 2 is then symmetric positive definite: it is factored once
as LDL^T by LAPACK (dpttrf), and each step is one dpttrs solve on
v = D u, v <- 2 (D A D^-1)^-1 v - v, which costs about half a pivoted
general tridiagonal solve. Since d > 0, negatives of v are those of u
and are clamped in place, and the mass is (dx / d) . v; u = v / d is
formed once, at the end. This is the discrete form of the ground-state
transform that makes the model solvable, but d is taken from the
stencil's own coefficients (in log form, centered so that max |ln d|
is smallest), never from a closed form, so the solve stays independent
of the density it checks.

No such d exists where a face saturates at Peclet exactly 1 (an
off-diagonal of L is 0), and d cannot be stored where the centered
|ln d| passes 600 (e**600 is about 1e260, with room left for the
density itself inside float64's range). There the same loop runs with
d = 1 on the pivoted LU of A/2 (dgttrf once, one dgttrs per step).

The delta initial condition is mollified to a narrow Gaussian of width
2*dx (standard deviation), renormalized on the grid. Since that
Gaussian is exactly the heat kernel after an effective diffusion time
t0 = width**2 / sigma**2, the solver integrates for T - t0: the
mollification then costs only higher-order drift-interaction terms
instead of a variance bias. Only the diffusion coefficient enters this
correction, so the solve stays independent of the closed-form density
it is used to check.

The scheme is second order in dx and dt: halving both should cut the
error against the exact density by about 4x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs

from .errors import ToleranceError, ValidationError
from .model import Direction, ModelParams, _require_diffusive, _whole_steps, drift

# Largest centered |ln d| of the symmetrized step (see the module docstring).
_MAX_LOG_SCALE = 600.0
# Largest advective Courant number mu_tilde dt / dx (see solve_fp).
MAX_COURANT = 1.7

__all__ = [
    "GridSpec",
    "DensityField",
    "solve_fp",
    "fp_transition_prob",
    "write_density_csv",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatial grid and time step for the PDE solve."""

    x_min: float
    x_max: float
    n_x: int
    dt: float

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max):
            raise ValidationError(f"x_min={self.x_min} must be < x_max={self.x_max}")
        if self.n_x < 5:
            # The tridiagonal solve needs at least three interior unknowns.
            raise ValidationError(f"n_x must be >= 5, got {self.n_x}")
        if not (self.dt > 0):
            raise ValidationError(f"dt must be > 0, got {self.dt}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)


@dataclass
class DensityField:
    """Density values on a grid at one time.

    peak_mass is the largest trapezoidal mass the solve saw after any
    step's clamp (None for a field not made by :func:`solve_fp`).
    """

    grid: GridSpec
    values: np.ndarray
    time: float
    peak_mass: float | None = None

    def mass(self) -> float:
        """Trapezoidal integral over the grid."""
        return float(np.trapezoid(self.values, dx=self.grid.dx))


def boundary_margin(params: ModelParams, horizon: float) -> float:
    """Distance 5 sigma sqrt(T) + mu_tilde T that x0 must keep from each
    end of a grid solved to time T (see :func:`solve_fp`)."""
    return 5.0 * params.sigma * math.sqrt(horizon) + params.mu_tilde * horizon


def _symmetrizer(lower: np.ndarray, upper: np.ndarray) -> np.ndarray | None:
    """The d > 0 that makes D L D^-1 symmetric for the tridiagonal L with
    sub-diagonal lower[1:] and super-diagonal upper[:-1], centered so that
    max |ln d| is smallest; None where an off-diagonal is not > 0 or that
    maximum passes _MAX_LOG_SCALE (see the module docstring)."""
    up, low = upper[:-1], lower[1:]
    if not (np.all(up > 0.0) and np.all(low > 0.0)):
        return None
    log_d = np.concatenate(([0.0], np.cumsum(0.5 * (np.log(up) - np.log(low)))))
    log_d -= 0.5 * (log_d.max() + log_d.min())
    if not (log_d.max() <= _MAX_LOG_SCALE):
        return None
    return np.exp(log_d)


def solve_fp(
    params: ModelParams,
    x0: float,
    horizon: float,
    grid: GridSpec,
    ic_width: float | None = None,
) -> DensityField:
    """Evolve the mollified delta at x0 to time T on the given grid.

    Preconditions: x0 must sit inside the grid with margin
    5 sigma sqrt(T) + mu_tilde T on both sides (otherwise mass would
    leak past the zero boundaries beyond 1e-6), T must be an integer
    number of grid.dt steps, the cell Peclet number
    mu_tilde * dx / sigma**2 must not exceed 1 (the centered advection
    stencil oscillates beyond that), the mesh ratio
    sigma**2 dt / (2 dx**2) must not exceed 20 (past about 22 the clamp
    of barely damped grid-scale modes of the narrow start adds mass),
    and the advective Courant number mu_tilde dt / dx must not exceed
    1.7 (past about 1.84, with the start near x_star and the Peclet
    number near 1, the clamp of Crank-Nicolson's undershoot adds mass).

    After every step negatives (clipped Crank-Nicolson undershoot, at
    the 1e-12 scale) are clamped to zero and the trapezoidal mass is
    required to stay <= 1 + 1e-6.
    """
    _require_diffusive(params)
    _whole_steps(horizon, grid.dt)
    margin = boundary_margin(params, horizon)
    if x0 - grid.x_min < margin or grid.x_max - x0 < margin:
        raise ValidationError(
            f"x0={x0} needs margin {margin:.6g} inside [{grid.x_min}, {grid.x_max}]; "
            "mass would leak past the boundaries"
        )
    dx = grid.dx
    peclet = params.mu_tilde * dx / (params.sigma * params.sigma)
    if peclet > 1.0:
        raise ValidationError(
            f"cell Peclet number {peclet:.3g} > 1: centered advection needs a finer grid"
        )
    ratio = params.sigma * params.sigma * grid.dt / (2.0 * dx * dx)
    if ratio > 20.0:
        raise ValidationError(
            f"mesh ratio sigma**2 dt / (2 dx**2) = {ratio:.3g} > 20: the clamp of undamped "
            "grid-scale modes would add mass; use a smaller dt"
        )
    courant = params.mu_tilde * grid.dt / dx
    if courant > MAX_COURANT:
        raise ValidationError(
            f"advective Courant number mu_tilde dt / dx = {courant:.3g} > {MAX_COURANT}: the "
            "clamp of Crank-Nicolson's undershoot would add mass; use a smaller dt"
        )

    x = grid.x
    w = 2.0 * dx if ic_width is None else float(ic_width)
    if not (w > 0):
        raise ValidationError(f"ic_width must be > 0, got {w}")
    t_ic = w * w / (params.sigma * params.sigma)
    if t_ic > 0.5 * horizon:
        raise ValidationError(
            f"initial-condition width {w} diffuses for {t_ic:.3g} of the {horizon:.3g} horizon; "
            "use a finer grid"
        )
    n_steps = round((horizon - t_ic) / grid.dt)
    if n_steps < 1:
        raise ValidationError(f"dt={grid.dt} leaves no whole step in the horizon {horizon}")
    values = np.exp(-((x - x0) ** 2) / (2.0 * w * w))
    values[0] = 0.0
    values[-1] = 0.0
    values /= np.trapezoid(values, dx=dx)

    diff = 0.5 * params.sigma * params.sigma
    mu_face = np.asarray(drift(params, x[:-1] + 0.5 * dx))  # n_x - 1 faces

    # Interior rows i = 1..n_x-2; flux form
    # dP_i/dt = [D (P_{i+1} - 2 P_i + P_{i-1}) / dx
    #            - (mu_{i+1/2} (P_{i+1} + P_i) - mu_{i-1/2} (P_i + P_{i-1})) / 2] / dx
    lower = diff / dx**2 + mu_face[:-1] / (2.0 * dx)
    upper = diff / dx**2 - mu_face[1:] / (2.0 * dx)
    diag = -2.0 * diff / dx**2 - (mu_face[1:] - mu_face[:-1]) / (2.0 * dx)

    # Factor A/2 = I/2 - (dt/4) L once, or its symmetric similar (see the
    # module docstring). Under the Peclet bound the off-diagonals of L are
    # >= 0 and its columns sum to zero, so A is strictly column diagonally
    # dominant: no pivot is zero, and D A D^-1 is positive definite.
    quarter_dt = 0.25 * grid.dt
    scale = _symmetrizer(lower, upper)
    if scale is not None:
        d, e, _ = dpttrf(0.5 - quarter_dt * diag, -quarter_dt * np.sqrt(upper[:-1] * lower[1:]))
        solve = partial(dpttrs, d, e)
    else:
        scale = np.ones(grid.n_x - 2)
        dl, d, du, du2, ipiv, _ = dgttrf(
            -quarter_dt * lower[1:], 0.5 - quarter_dt * diag, -quarter_dt * upper[:-1]
        )
        solve = partial(dgttrs, dl, d, du, du2, ipiv)

    weight = dx / scale  # full-grid trapezoid of u; boundary nodes are zero
    v = values[1:-1] * scale
    peak_mass = -math.inf
    for _ in range(n_steps):
        y, _ = solve(v)
        np.subtract(y, v, out=y)
        np.maximum(y, 0.0, out=y)
        v = y
        mass = weight @ v
        if mass > 1.0 + 1e-6:
            raise ToleranceError(f"mass grew to {mass} > 1 + 1e-6; scheme unstable here")
        if mass > peak_mass:
            peak_mass = mass

    values = np.zeros(grid.n_x, dtype=float)
    values[1:-1] = v / scale
    return DensityField(grid=grid, values=values, time=horizon, peak_mass=peak_mass)


def fp_transition_prob(field: DensityField, x_star: float, direction: Direction) -> float:
    """Trapezoidal integral of the field over the target side of x_star.

    The cell containing x_star is split by linear interpolation, so a
    field symmetric about the threshold integrates to exactly one half
    per side.
    """
    x = field.grid.x
    if not (x[0] <= x_star <= x[-1]):
        raise ValidationError(f"x_star={x_star} outside grid [{x[0]}, {x[-1]}]")
    v = field.values
    dx = field.grid.dx

    def left_integral(xs: np.ndarray, vs: np.ndarray, cut: float) -> float:
        j = int(np.searchsorted(xs, cut, side="right") - 1)
        j = min(max(j, 0), len(xs) - 1)
        total = np.trapezoid(vs[: j + 1], dx=dx) if j >= 1 else 0.0
        if j < len(xs) - 1 and cut > xs[j]:
            frac = (cut - xs[j]) / dx
            v_cut = vs[j] + frac * (vs[j + 1] - vs[j])
            total += 0.5 * (vs[j] + v_cut) * (cut - xs[j])
        return float(total)

    if direction is Direction.HEALTHY_TO_DISTRESSED:
        p = left_integral(x, v, x_star)
    else:
        # Mirror so both sides are computed by identical arithmetic.
        p = left_integral(-x[::-1], v[::-1], -x_star)
    return min(max(p, 0.0), 1.0)


def write_density_csv(field: DensityField, path) -> None:
    """Dump (x, density) rows at the field's time, for plotting."""
    x = field.grid.x
    with open(path, "w", newline="") as fh:
        fh.write("x,density\n")
        for xi, vi in zip(x, field.values):
            fh.write(f"{float(xi)!r},{float(vi)!r}\n")
