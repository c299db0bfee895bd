"""PDE oracle: scheme accuracy, conservation, and the agreement triangle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import tanhdrift as td
from tanhdrift import fokker_planck as fp
from tanhdrift.mc import SimConfig, mc_transition_prob

from oracles import solve_fp_dgttrs_reference, solve_fp_reference

H2D = td.Direction.HEALTHY_TO_DISTRESSED
D2H = td.Direction.DISTRESSED_TO_HEALTHY


def _auto_grid(params, x0, horizon, dx, dt):
    margin = 5.0 * params.sigma * math.sqrt(horizon) + params.mu_tilde * horizon
    pad = params.sigma * math.sqrt(horizon)
    lo = x0 - margin - pad
    n_x = int(math.ceil(2.0 * (margin + pad) / dx)) + 1
    return fp.GridSpec(x_min=lo, x_max=lo + (n_x - 1) * dx, n_x=n_x, dt=dt)


def _linf_relative(params, x0, horizon, field):
    closed = np.asarray(td.density_profile(params, field.grid.x, x0, horizon))
    region = closed > 1e-6 * float(np.max(closed))
    return float(np.max(np.abs(field.values[region] - closed[region]) / closed[region]))


def test_grid_spec_validation():
    with pytest.raises(td.ValidationError):
        fp.GridSpec(1.0, 0.0, 11, 0.01)
    with pytest.raises(td.ValidationError):
        fp.GridSpec(0.0, 1.0, 2, 0.01)
    with pytest.raises(td.ValidationError):
        fp.GridSpec(0.0, 1.0, 11, 0.0)
    g = fp.GridSpec(0.0, 1.0, 11, 0.01)
    assert g.dx == pytest.approx(0.1)


def test_heat_kernel_nu_zero():
    p = td.ModelParams(0.0, 1.0, 0.0)
    grid = _auto_grid(p, 0.0, 0.5, 0.01, 1e-4)
    field = fp.solve_fp(p, 0.0, 0.5, grid)
    exact = norm.pdf(grid.x, loc=0.0, scale=math.sqrt(0.5))
    assert float(np.max(np.abs(field.values - exact))) < 1e-3
    assert field.mass() == pytest.approx(1.0, abs=1e-4)
    assert field.time == 0.5


def test_matches_closed_form_reference_case():
    # nu=1, sigma=0.2, x_star=0, x0=0.5, T=2 at dx=0.005, dt=1e-4
    p = td.ModelParams(1.0, 0.2, 0.0)
    grid = _auto_grid(p, 0.5, 2.0, 0.005, 1e-4)
    field = fp.solve_fp(p, 0.5, 2.0, grid)
    assert _linf_relative(p, 0.5, 2.0, field) < 1e-2
    assert field.mass() == pytest.approx(1.0, abs=1e-4)
    assert np.all(field.values >= 0.0)


def test_second_order_refinement_ladder():
    p = td.ModelParams(1.0, 0.2, 0.0)
    errs = []
    for dx, dt in ((0.02, 1e-3), (0.01, 5e-4), (0.005, 2.5e-4)):
        grid = _auto_grid(p, 0.5, 1.0, dx, dt)
        field = fp.solve_fp(p, 0.5, 1.0, grid)
        errs.append(_linf_relative(p, 0.5, 1.0, field))
    for coarse, fine in zip(errs, errs[1:]):
        assert 2.5 < coarse / fine < 6.5


def test_margin_precondition_enforced():
    p = td.ModelParams(1.0, 0.2, 0.0)
    grid = fp.GridSpec(x_min=0.0, x_max=1.0, n_x=101, dt=1e-3)
    with pytest.raises(td.ValidationError):
        fp.solve_fp(p, 0.5, 2.0, grid)


def test_peclet_precondition_enforced():
    # huge drift on a coarse grid: centered advection would oscillate
    p = td.ModelParams(10.0, 0.1, 0.0)  # mu_tilde = 0.1, sigma**2 = 0.01
    grid = fp.GridSpec(x_min=-8.0, x_max=8.0, n_x=65, dt=1e-3)  # dx = 0.25
    with pytest.raises(td.ValidationError):
        fp.solve_fp(p, 0.0, 1.0, grid)


def test_horizon_step_mismatch_rejected():
    p = td.ModelParams(1.0, 0.2, 0.0)
    grid = _auto_grid(p, 0.0, 1.0, 0.01, dt=0.3)
    with pytest.raises(td.ValidationError):
        fp.solve_fp(p, 0.0, 1.0, grid)


def test_transition_prob_symmetric_field_is_half():
    p = td.ModelParams(1.3, 0.4, 0.2)
    grid = _auto_grid(p, p.x_star, 1.0, 0.01, 1e-3)
    field = fp.solve_fp(p, p.x_star, 1.0, grid)
    for direction in (H2D, D2H):
        assert fp.fp_transition_prob(field, p.x_star, direction) == pytest.approx(0.5, abs=1e-6)


def test_transition_prob_gaussian_case():
    p = td.ModelParams(0.0, 1.0, 0.3)
    grid = _auto_grid(p, 1.0, 1.0, 0.005, 1e-4)
    field = fp.solve_fp(p, 1.0, 1.0, grid)
    got = fp.fp_transition_prob(field, 0.3, H2D)
    assert got == pytest.approx(norm.cdf((0.3 - 1.0) / 1.0), abs=1e-3)


def test_transition_prob_threshold_outside_grid():
    p = td.ModelParams(0.0, 1.0, 0.0)
    grid = _auto_grid(p, 0.0, 0.5, 0.01, 1e-3)
    field = fp.solve_fp(p, 0.0, 0.5, grid)
    with pytest.raises(td.ValidationError):
        fp.fp_transition_prob(field, grid.x_max + 1.0, H2D)


def test_agreement_triangle():
    # closed-form quadrature, PDE integral, and Monte Carlo agree pairwise
    p = td.ModelParams(1.0, 0.2, 0.0)
    x0, horizon = 0.5, 2.0
    quad_value = td.regime_transition_prob_finite(p, x0, horizon, H2D).value
    grid = _auto_grid(p, x0, horizon, 0.005, 2e-4)
    pde_value = fp.fp_transition_prob(fp.solve_fp(p, x0, horizon, grid), p.x_star, H2D)
    est = mc_transition_prob(
        p, SimConfig(n_paths=100_000, dt=0.01, horizon=horizon, seed=17, x0=x0), H2D
    )
    assert pde_value == pytest.approx(quad_value, abs=1e-3)
    assert est.value == pytest.approx(quad_value, abs=3 * est.std_error + 0.005)
    assert est.value == pytest.approx(pde_value, abs=3 * est.std_error + 0.005 + 1e-3)


def test_density_csv_dump(tmp_path):
    p = td.ModelParams(0.0, 1.0, 0.0)
    grid = _auto_grid(p, 0.0, 0.5, 0.05, 1e-3)
    field = fp.solve_fp(p, 0.0, 0.5, grid)
    out = tmp_path / "density.csv"
    fp.write_density_csv(field, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,density"
    assert len(lines) == 1 + grid.n_x
    xs = np.array([float(line.split(",")[0]) for line in lines[1:]])
    np.testing.assert_allclose(xs, grid.x, atol=1e-12)


# ---------------------------------------------------------------------------
# prefactored LAPACK solve against the SuperLU reference


def _outcome(solve, *args, **kwargs):
    """The field a solver returns, or the type of the error it raises."""
    try:
        return solve(*args, **kwargs)
    except td.TanhDriftError as exc:
        return type(exc)


def _assert_same_outcome(*args, reference=solve_fp_reference, **kwargs):
    new = _outcome(fp.solve_fp, *args, **kwargs)
    ref = _outcome(reference, *args, **kwargs)
    if isinstance(ref, type):
        assert new is ref
        return
    assert isinstance(new, fp.DensityField)
    peak = float(np.max(ref.values))
    assert float(np.max(np.abs(new.values - ref.values))) <= 1e-10 * peak
    assert new.time == ref.time


@st.composite
def _fp_cases(draw):
    nu = draw(st.one_of(st.just(0.0), st.floats(0.1, 3.0)))
    sigma = draw(st.floats(0.1, 1.0))
    x_star = 0.1
    x0 = x_star + draw(st.one_of(st.just(0.0), st.floats(-1.5, 1.5)))  # both sides of x*
    horizon = draw(st.floats(0.05, 2.0))
    dt = horizon / draw(st.integers(20, 600))  # a whole step count
    # Peclet nu * dx <= 1, and the mollified start diffuses for at most T/2.
    dx_max = sigma * math.sqrt(horizon / 8.0)
    if nu > 0:
        dx_max = min(dx_max, 1.0 / nu)
    dx = dx_max * draw(st.floats(0.05, 0.95))
    p = td.ModelParams(nu, sigma, x_star)
    return p, x0, horizon, _auto_grid(p, x0, horizon, dx, dt)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(_fp_cases())
def test_solve_fp_matches_splu_reference(case):
    # past a mesh ratio sigma^2 dt / (2 dx^2) of 20, or an advective Courant
    # number mu_tilde dt / dx of fp.MAX_COURANT (1.7), the solver refuses
    # the grid, where the reference may still run or raise ToleranceError
    p, x0, horizon, grid = case
    if p.sigma**2 * grid.dt / (2.0 * grid.dx**2) > 20.0:
        with pytest.raises(td.ValidationError, match="mesh ratio"):
            fp.solve_fp(p, x0, horizon, grid)
    elif p.mu_tilde * grid.dt / grid.dx > fp.MAX_COURANT:
        with pytest.raises(td.ValidationError, match="Courant"):
            fp.solve_fp(p, x0, horizon, grid)
    else:
        _assert_same_outcome(p, x0, horizon, grid)


# ---------------------------------------------------------------------------
# the step on the symmetrized operator against the pivoted dgttrs loop


@st.composite
def _symmetrized_cases(draw):
    """Grids inside every precondition: x0 on both sides of x*, nu up to
    30, cell Peclet numbers up to 1 and often near it, and Courant numbers
    up to the bound, often at it. Large nu * width takes the fallback."""
    nu = draw(st.one_of(st.just(0.0), st.floats(0.1, 30.0)))
    sigma = draw(st.floats(0.1, 1.0))
    x_star = 0.1
    x0 = x_star + draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
    horizon = draw(st.floats(0.1, 1.0))
    dx = sigma * math.sqrt(horizon / 8.0) * draw(st.floats(0.2, 1.0))  # start diffuses <= T/2
    p = td.ModelParams(nu, sigma, x_star)
    if nu > 0:
        peclet = draw(st.one_of(st.floats(0.9, 1.0), st.floats(0.5, 1.0)))
        dx = min(dx, peclet * sigma**2 / p.mu_tilde)
    # the fewest whole steps that keep the Courant number and the mesh ratio
    # inside their bounds, or more
    n_steps = max(
        math.ceil(p.mu_tilde * horizon / (fp.MAX_COURANT * dx)),
        math.ceil(sigma**2 * horizon / (40.0 * dx**2)),
        draw(st.one_of(st.just(1), st.integers(10, 300))),
    )
    return p, x0, horizon, _auto_grid(p, x0, horizon, dx, horizon / n_steps)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_symmetrized_cases())
def test_solve_fp_matches_dgttrs_reference(case):
    p, x0, horizon, grid = case
    assert p.mu_tilde * grid.dt / grid.dx <= fp.MAX_COURANT
    _assert_same_outcome(p, x0, horizon, grid, reference=solve_fp_dgttrs_reference)


def _count_calls(monkeypatch, names):
    """The list that each call of the fokker_planck globals names (LAPACK
    solves) appends its name to."""
    calls = []
    for name in names:
        real = getattr(fp, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(fp, name, counted)
    return calls


def _assert_path(monkeypatch, solve, p, x0, horizon, grid):
    """solve_fp steps with the LAPACK routine solve on this grid and
    matches the dgttrs loop within 1e-10 of the peak."""
    calls = _count_calls(monkeypatch, ("dpttrs", "dgttrs"))
    _assert_same_outcome(p, x0, horizon, grid, reference=solve_fp_dgttrs_reference)
    assert calls and set(calls) == {solve}


def test_reference_grid_steps_on_the_symmetrized_operator(monkeypatch):
    p = td.ModelParams(1.0, 0.2, 0.0)
    _assert_path(monkeypatch, "dpttrs", p, 0.5, 1.0, _auto_grid(p, 0.5, 1.0, 0.01, 1e-3))


def test_scale_past_float64_takes_the_dgttrs_fallback(monkeypatch):
    # nu * width is about 1940: the centered |ln d| of the stencil reaches
    # about 699, past the 600 that d = exp(ln d) may span
    p = td.ModelParams(100.0, 0.2, 0.0)
    grid = _auto_grid(p, 0.5, 2.0, 0.008, 1e-3)
    _assert_path(monkeypatch, "dgttrs", p, 0.5, 2.0, grid)


def test_saturated_face_at_peclet_one_takes_the_dgttrs_fallback(monkeypatch):
    # mu_tilde dx / sigma^2 = 4 * 0.25 / 1 is exactly 1, and tanh is exactly 1
    # on the faces past |x - x*| = 4.77, where L's upper diagonal is 0
    p = td.ModelParams(4.0, 1.0, 0.0)
    grid = _auto_grid(p, 0.5, 1.0, 0.25, 0.01)
    dx = grid.dx
    mu_face = np.asarray(td.drift(p, grid.x[:-1] + 0.5 * dx))
    assert np.any(0.5 * p.sigma**2 / dx**2 - mu_face / (2.0 * dx) == 0.0)
    _assert_path(monkeypatch, "dgttrs", p, 0.5, 1.0, grid)


def test_courant_precondition_enforced():
    # Peclet 0.5, mesh ratio 4 and every other precondition met, but
    # mu_tilde dt / dx = 4: the clamp would grow the mass past 1 + 1e-6
    p = td.ModelParams(2.0, 1.0, 0.0)
    grid = _auto_grid(p, 0.5, 1.0, 0.25, 0.5)
    with pytest.raises(td.ValidationError, match="Courant number mu_tilde dt / dx = 4 > 1.7"):
        fp.solve_fp(p, 0.5, 1.0, grid)
    with pytest.raises(td.ToleranceError):
        solve_fp_dgttrs_reference(p, 0.5, 1.0, grid)


@pytest.mark.parametrize(
    "params, x0, horizon, grid, ic_width",
    [
        # margin too short
        (td.ModelParams(1.0, 0.2, 0.0), 0.5, 2.0, fp.GridSpec(0.0, 1.0, 101, 1e-3), None),
        # cell Peclet number above 1
        (td.ModelParams(10.0, 0.1, 0.0), 0.0, 1.0, fp.GridSpec(-8.0, 8.0, 65, 1e-3), None),
        # horizon not a whole number of steps
        (td.ModelParams(1.0, 0.2, 0.0), 0.0, 1.0, fp.GridSpec(-3.0, 3.0, 601, 0.3), None),
        # sigma = 0
        (td.ModelParams(1.0, 0.0, 0.0), 0.0, 1.0, fp.GridSpec(-3.0, 3.0, 601, 1e-2), None),
        # horizon <= 0
        (td.ModelParams(1.0, 0.2, 0.0), 0.0, 0.0, fp.GridSpec(-3.0, 3.0, 601, 1e-2), None),
        # initial width <= 0, and one that diffuses past half the horizon
        (td.ModelParams(1.0, 0.2, 0.0), 0.0, 1.0, fp.GridSpec(-3.0, 3.0, 601, 1e-2), 0.0),
        (td.ModelParams(1.0, 0.2, 0.0), 0.0, 1.0, fp.GridSpec(-3.0, 3.0, 601, 1e-2), 0.2),
    ],
)
def test_solve_fp_raises_as_reference(params, x0, horizon, grid, ic_width):
    with pytest.raises(td.ValidationError):
        fp.solve_fp(params, x0, horizon, grid, ic_width=ic_width)
    _assert_same_outcome(params, x0, horizon, grid, ic_width=ic_width)


@pytest.mark.parametrize("n_x", [3, 4])
def test_grid_needs_three_interior_nodes(n_x):
    with pytest.raises(td.ValidationError):
        fp.GridSpec(-5.0, 5.0, n_x, 0.01)


def test_five_node_grid_solves():
    p = td.ModelParams(0.0, 1.0, 0.0)
    grid = fp.GridSpec(-5.0, 5.0, 5, 0.01)
    field = fp.solve_fp(p, 0.0, 1.0, grid, ic_width=0.1)
    assert field.values[0] == field.values[-1] == 0.0
    assert np.all(field.values[1:-1] > 0.0)
    _assert_same_outcome(p, 0.0, 1.0, grid, ic_width=0.1)


def test_peak_mass_bounds_every_step():
    p = td.ModelParams(1.0, 0.2, 0.0)
    grid = _auto_grid(p, 0.5, 1.0, 0.01, 1e-3)
    field = fp.solve_fp(p, 0.5, 1.0, grid)
    final = float(field.values[1:-1].sum()) * grid.dx  # the last step's mass
    assert final <= field.peak_mass <= 1.0 + 1e-6
    assert field.peak_mass == pytest.approx(1.0, abs=1e-6)
