"""Closed-form layer: drift, potentials, density, regime probabilities."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

import tanhdrift as td

from oracles import (
    _finite_prob_quadrature,
    _quad_density,
    _truncation_hull,
    cosh_ratio_density,
    logistic_switch_prob,
    mixture_density,
    mixture_prob_above,
    mixture_prob_below,
    regime_transition_prob_finite_reference,
)

H2D = td.Direction.HEALTHY_TO_DISTRESSED
D2H = td.Direction.DISTRESSED_TO_HEALTHY


def _random_params(rng):
    nu = rng.uniform(0.0, 3.0)
    sigma = rng.uniform(0.05, 1.0)
    x_star = rng.uniform(-1.0, 1.0)
    return td.ModelParams(nu=nu, sigma=sigma, x_star=x_star)


# ---------------------------------------------------------------------------
# parameters


def test_derived_quantities_recomputed():
    p = td.ModelParams(nu=1.5, sigma=0.4, x_star=math.log(80.0))
    assert p.mu_tilde == 1.5 * 0.4 * 0.4
    assert p.s_star == math.exp(math.log(80.0))
    p2 = td.ModelParams.from_threshold_price(1.5, 0.4, 80.0)
    assert p2.x_star == math.log(80.0)


def test_invalid_params_rejected():
    with pytest.raises(td.ValidationError):
        td.ModelParams(nu=-0.1, sigma=0.2, x_star=0.0)
    with pytest.raises(td.ValidationError):
        td.ModelParams(nu=1.0, sigma=-0.2, x_star=0.0)
    with pytest.raises(td.ValidationError):
        td.ModelParams(nu=float("nan"), sigma=0.2, x_star=0.0)
    with pytest.raises(td.ValidationError):
        td.ModelParams.from_threshold_price(1.0, 0.2, -5.0)


# ---------------------------------------------------------------------------
# drift


def test_drift_vanishes_at_threshold():
    p = td.ModelParams(nu=1.0, sigma=0.2, x_star=0.0)
    assert td.drift(p, 0.0) == 0.0


def test_drift_saturates_at_mu_tilde():
    p = td.ModelParams(nu=1.0, sigma=0.2, x_star=0.0)
    assert td.drift(p, 1e3) == pytest.approx(0.04, abs=1e-15)
    assert td.drift(p, -1e3) == pytest.approx(-0.04, abs=1e-15)


def test_drift_point_value_high_precision():
    # 2 * 0.25 * tanh(1) via mpmath (50 digits), frozen through float()
    p = td.ModelParams(nu=2.0, sigma=0.5, x_star=1.0)
    expected = float(2.0 * 0.25 * mpmath.mp.tanh(1.0))
    assert expected == pytest.approx(0.3807970779778824, abs=1e-15)
    assert td.drift(p, 1.5) == pytest.approx(expected, abs=1e-14)


def test_drift_odd_symmetric_and_bounded():
    p = td.ModelParams(nu=2.3, sigma=0.7, x_star=0.4)
    xs = np.linspace(-30, 30, 401)
    vals = td.drift(p, p.x_star + xs)
    mirror = td.drift(p, p.x_star - xs)
    np.testing.assert_allclose(vals, -mirror, atol=1e-15)
    assert np.all(np.abs(vals) <= p.mu_tilde + 1e-15)


# ---------------------------------------------------------------------------
# potentials


def test_potential_zero_at_threshold_and_for_nu_zero():
    assert td.potential(td.ModelParams(1.0, 1.0, 0.0), 0.0) == 0.0
    p0 = td.ModelParams(0.0, 1.0, 0.0)
    assert np.all(np.asarray(td.potential(p0, np.linspace(-7, 7, 31))) == 0.0)


def test_potential_wedge_asymptote():
    p = td.ModelParams(1.0, 1.0, 0.0)
    expected = -50.0 + math.log(2.0)
    assert td.potential(p, 50.0) == pytest.approx(expected, abs=1e-12)
    assert td.potential(p, -50.0) == pytest.approx(expected, abs=1e-12)
    # no overflow far out
    assert np.isfinite(td.potential(p, 1e6))


def test_force_equals_negative_potential_gradient():
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = _random_params(rng)
        xs = rng.uniform(p.x_star - 4, p.x_star + 4, 50)
        h = 1e-6
        grad = (td.potential(p, xs + h) - td.potential(p, xs - h)) / (2 * h)
        np.testing.assert_allclose(td.drift(p, xs), -grad, atol=1e-6)


def test_schrodinger_identity_examples():
    assert td.schrodinger_potential(td.ModelParams(1.5, 0.3, 0.7), -3.1) == pytest.approx(
        2.25, abs=1e-13
    )
    assert td.schrodinger_potential(td.ModelParams(0.0, 1.0, 0.0), 5.0) == 0.0
    p = td.ModelParams(2.0, 0.1, 0.0)
    xs = np.linspace(-40, 40, 10_000)
    np.testing.assert_allclose(td.schrodinger_potential(p, xs), 4.0, atol=1e-12)


def test_schrodinger_identity_with_finite_difference_h():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = _random_params(rng)
        xs = rng.uniform(p.x_star - 5, p.x_star + 5, 200)
        h = lambda x: td.drift(p, x) / (p.sigma * p.sigma)
        delta = 1e-6
        h_prime = (h(xs + delta) - h(xs - delta)) / (2 * delta)
        np.testing.assert_allclose(h(xs) ** 2 + h_prime, p.nu**2, atol=1e-6)


# ---------------------------------------------------------------------------
# transition density


def test_density_gaussian_center_nu_zero():
    q = td.DensityQuery(x=0.0, x0=0.0, t=1.0)
    p = td.ModelParams(0.0, 1.0, 0.0)
    assert td.transition_density(p, q) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-14)


def test_density_center_nu_one():
    q = td.DensityQuery(x=0.0, x0=0.0, t=1.0)
    p = td.ModelParams(1.0, 1.0, 0.0)
    expected = math.exp(-0.5) / math.sqrt(2 * math.pi)
    assert td.transition_density(p, q) == pytest.approx(expected, rel=1e-14)


def test_density_rejects_bad_t():
    with pytest.raises(td.ValidationError):
        td.DensityQuery(x=0.0, x0=0.0, t=0.0)
    with pytest.raises(td.ValidationError):
        td.density_profile(td.ModelParams(1.0, 1.0, 0.0), 0.0, 0.0, -1.0)
    with pytest.raises(td.ValidationError):
        td.density_profile(td.ModelParams(1.0, 0.0, 0.0), 0.0, 0.0, 1.0)


def test_density_matches_mixture_oracle():
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = _random_params(rng)
        x0 = p.x_star + rng.uniform(-5, 5)
        t = rng.uniform(0.01, 10.0)
        xs = x0 + p.sigma * math.sqrt(t) * np.linspace(-6, 6, 41)
        got = td.density_profile(p, xs, x0, t)
        want = mixture_density(p.nu, p.sigma, p.x_star, xs, x0, t)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)


def test_density_no_overflow_under_stress():
    # nu |x - x_star| in the hundreds must stay finite
    p = td.ModelParams(3.0, 0.05, 0.0)
    vals = td.density_profile(p, np.linspace(-200, 200, 101), 150.0, 0.5)
    assert np.all(np.isfinite(vals))
    assert np.all(vals >= 0.0)


def test_density_symmetric_about_threshold_start():
    p = td.ModelParams(1.7, 0.3, 0.25)
    for t in (0.1, 1.0, 7.0):
        for delta in (0.01, 0.5, 3.0, 20.0):
            lo = td.transition_density(p, td.DensityQuery(p.x_star - delta, p.x_star, t))
            hi = td.transition_density(p, td.DensityQuery(p.x_star + delta, p.x_star, t))
            assert lo == hi


def test_normalization_randomized():
    rng = np.random.default_rng(42)
    for _ in range(50):
        p = _random_params(rng)
        if p.sigma == 0:
            continue
        x0 = p.x_star + rng.uniform(-5, 5)
        t = rng.uniform(0.01, 10.0)
        assert abs(td.density_normalization(p, x0, t) - 1.0) < 1e-8


def test_normalization_matches_quadrature():
    rng = np.random.default_rng(43)
    for _ in range(100):
        p = _random_params(rng)
        x0 = p.x_star + rng.uniform(-5, 5)
        t = math.exp(rng.uniform(math.log(1e-3), math.log(300.0)))
        lo, hi = _truncation_hull(p, x0, t)
        want = _quad_density(p, x0, t, lo, hi)
        assert abs(td.density_normalization(p, x0, t) - want) <= 1e-12


def test_normalization_of_a_narrow_peak_far_from_the_threshold():
    # Quadrature over [x_star - w, x0 + w] steps over this peak and
    # integrates to 0.50; the window around x0 resolves it.
    p = td.ModelParams(1.0, 0.05, 0.0)
    for t in (1e-4, 1e-6):
        assert abs(td.density_normalization(p, 5.0, t) - 1.0) < 1e-12


def test_normalization_of_two_far_apart_centres():
    # At nu * sigma * sqrt(t) = 3000 a single window from x0 - mu_tilde t
    # to x0 + mu_tilde t spaces its nodes 1.5 standard deviations apart
    # and misses 1 by 2e-4; one window per centre keeps the spacing.
    for k in (3e3, 5e3):
        for sigma, t in ((0.2, 1.0), (1.0, 100.0)):
            p = td.ModelParams(k / (sigma * math.sqrt(t)), sigma, 0.0)
            for x0 in (0.0, 0.3):
                assert abs(td.density_normalization(p, x0, t) - 1.0) < 1e-8


def test_density_profile_matches_cosh_ratio_form():
    # Where nu sigma sqrt(t) <= 10 the cosh-ratio form loses at most
    # about 100 ulp to cancellation, so the two agree to 1e-12.
    rng = np.random.default_rng(44)
    for _ in range(200):
        p = _random_params(rng)
        t = math.exp(rng.uniform(math.log(1e-3), math.log(30.0)))
        if p.nu * p.sigma * math.sqrt(t) > 10.0:
            continue
        x0 = p.x_star + rng.choice([0.0, rng.uniform(-3.0, 3.0)])
        s, m = p.sigma * math.sqrt(t), p.mu_tilde * t
        x = np.linspace(x0 - m - 12.0 * s, x0 + m + 12.0 * s, 801)
        old = cosh_ratio_density(p, x, x0, t)
        new = td.density_profile(p, x, x0, t)
        region = old > 1e-6 * float(np.max(old))
        assert np.max(np.abs(new[region] - old[region]) / old[region]) <= 1e-12


def test_normalization_far_past_cancellation():
    # With the cosh-ratio form, |norm - 1| read 3.9e-9 to 1.4e-6 at these
    # points, past density's default --tol-norm of 1e-8 for most of them.
    for k in (1e4, 3e4, 1e5):
        for sigma, t, x0 in ((1.0, 1.0, 0.3), (0.05, 100.0, 0.3), (0.2, 1e-3, -0.3)):
            p = td.ModelParams(k / (sigma * math.sqrt(t)), sigma, 0.0)
            assert abs(td.density_normalization(p, x0, t) - 1.0) <= 1e-12


def test_chapman_kolmogorov():
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = _random_params(rng)
        if p.nu == 0:
            continue
        x0 = p.x_star + rng.uniform(-2, 2)
        t1, t2 = rng.uniform(0.05, 2.0, 2)
        x = x0 + rng.uniform(-2, 2)
        lo1, hi1 = _truncation_hull(p, x0, t1)
        lo2, hi2 = _truncation_hull(p, x, t2)
        lo, hi = min(lo1, lo2), max(hi1, hi2)
        composed, _ = quad(
            lambda y: float(td.density_profile(p, x, y, t2))
            * float(td.density_profile(p, y, x0, t1)),
            lo,
            hi,
            limit=300,
            epsabs=1e-10,
        )
        direct = float(td.density_profile(p, x, x0, t1 + t2))
        assert composed == pytest.approx(direct, abs=1e-6, rel=1e-6)


# ---------------------------------------------------------------------------
# asymptotic density


def test_asymptotic_density_mode_value():
    p = td.ModelParams(1.0, 0.2, 0.0)
    q = td.DensityQuery(x=p.mu_tilde * 1.0, x0=0.0, t=1.0)
    expected = 1.0 / (math.sqrt(2 * math.pi) * 0.2)
    assert td.asymptotic_density(p, q, +1) == pytest.approx(expected, rel=1e-14)


def test_asymptotic_ratio_approaches_one_deep_in_regime():
    # exact/asymptotic -> 1 requires both x and x0 deep on the same side;
    # keep them within a few sd of each other so neither density underflows
    for nu, sigma in [(1.0, 0.2), (2.0, 0.5), (0.7, 1.0)]:
        p = td.ModelParams(nu, sigma, 0.3)
        x = p.x_star + 20.0 / nu
        for t in (0.5, 2.0):
            x0 = x - 2.0 * sigma * math.sqrt(t)
            assert nu * (x0 - p.x_star) >= 8.0
            exact = td.transition_density(p, td.DensityQuery(x, x0, t))
            asym = td.asymptotic_density(p, td.DensityQuery(x, x0, t), +1)
            assert exact / asym == pytest.approx(1.0, abs=1e-6)


def test_asymptotic_equals_exact_for_nu_zero():
    p = td.ModelParams(0.0, 1.0, 0.0)
    for x in np.linspace(-3, 3, 13):
        q = td.DensityQuery(float(x), 0.5, 2.0)
        exact = td.transition_density(p, q)
        assert td.asymptotic_density(p, q, +1) == pytest.approx(exact, rel=1e-14)
        assert td.asymptotic_density(p, q, -1) == pytest.approx(exact, rel=1e-14)


def test_asymptotic_density_validation():
    p = td.ModelParams(1.0, 0.2, 0.0)
    with pytest.raises(td.ValidationError):
        td.asymptotic_density(p, td.DensityQuery(0.0, 0.0, 1.0), 2)


# ---------------------------------------------------------------------------
# finite-horizon regime probabilities


def test_finite_prob_boundary_is_half():
    for nu, sigma, t in [(0.5, 0.3, 0.2), (2.0, 0.8, 5.0), (0.0, 1.0, 1.0)]:
        p = td.ModelParams(nu, sigma, 0.7)
        for direction in (H2D, D2H):
            r = td.regime_transition_prob_finite(p, p.x_star, t, direction)
            assert r.value == 0.5
        if nu > 0:
            # the raw quadrature path agrees with the symmetry shortcut
            raw = _finite_prob_quadrature(p, p.x_star, t, H2D)
            assert abs(raw - 0.5) < 1e-10


def test_finite_prob_gaussian_case():
    p = td.ModelParams(0.0, 1.0, 0.0)
    r = td.regime_transition_prob_finite(p, 1.0, 1.0, H2D)
    assert r.value == pytest.approx(norm.cdf(-1.0), abs=1e-10)


def test_finite_prob_long_horizon_approaches_asymptote():
    p = td.ModelParams.from_threshold_price(1.0, 0.2, 100.0)
    r = td.regime_transition_prob_finite(p, math.log(150.0), 400.0, H2D)
    assert r.value == pytest.approx(1.0 / 3.25, abs=0.005)


def test_finite_prob_matches_mixture_cdf():
    rng = np.random.default_rng(31)
    for _ in range(15):
        p = _random_params(rng)
        if p.sigma == 0:
            continue
        t = rng.uniform(0.05, 5.0)
        off = rng.uniform(0.01, 4.0)
        up = td.regime_transition_prob_finite(p, p.x_star + off, t, H2D).value
        want_up = mixture_prob_below(p.nu, p.sigma, p.x_star, p.x_star + off, t, p.x_star)
        assert up == pytest.approx(want_up, abs=1e-9)
        dn = td.regime_transition_prob_finite(p, p.x_star - off, t, D2H).value
        want_dn = mixture_prob_above(p.nu, p.sigma, p.x_star, p.x_star - off, t, p.x_star)
        assert dn == pytest.approx(want_dn, abs=1e-9)


def test_finite_prob_matches_quadrature_on_horizon_ladder():
    # The README example (S0 = 150, S_star = 100) at the 400 horizons from
    # 0.25 to 100 years that the benchmark's default-prob command asks for.
    p = td.ModelParams.from_threshold_price(1.0, 0.2, 100.0)
    x0 = math.log(150.0)
    for i in range(400):
        t = 0.25 + (100.0 - 0.25) * i / 399
        got = td.regime_transition_prob_finite(p, x0, t, H2D).value
        assert got == pytest.approx(_finite_prob_quadrature(p, x0, t, H2D), rel=1e-12, abs=0.0)


def _mp_switch_prob(nu, sigma, x_star, x0, t, direction):
    """The two-Gaussian mixture CDF at 50 digits from the float inputs;
    each tail is taken as ncdf of a negated argument, never 1 - ncdf."""
    with mpmath.workdps(50):
        nu, sigma, x_star, x0, t = map(mpmath.mpf, (nu, sigma, x_star, x0, t))
        m = nu * sigma * sigma * t
        s = sigma * mpmath.sqrt(t)
        w_up = 1 / (1 + mpmath.exp(-2 * nu * (x0 - x_star)))
        w_dn = 1 / (1 + mpmath.exp(2 * nu * (x0 - x_star)))
        sign = 1 if direction is H2D else -1
        return w_up * mpmath.ncdf(sign * (x_star - x0 - m) / s) + w_dn * mpmath.ncdf(
            sign * (x_star - x0 + m) / s
        )


def test_finite_prob_far_tail():
    # Starts up to 38 standard deviations from the threshold reach values
    # down to 1e-300, where quadrature loses its relative accuracy.
    rng = np.random.default_rng(71)
    tiny = 0
    for _ in range(200):
        p = td.ModelParams(rng.uniform(0.0, 3.0), rng.uniform(0.05, 1.0), rng.uniform(-1.0, 1.0))
        t = math.exp(rng.uniform(math.log(1e-3), math.log(300.0)))
        d = p.sigma * math.sqrt(t) * rng.uniform(0.01, 38.0)
        for direction, x0, mixture in (
            (H2D, p.x_star + d, mixture_prob_below),
            (D2H, p.x_star - d, mixture_prob_above),
        ):
            want = _mp_switch_prob(p.nu, p.sigma, p.x_star, x0, t, direction)
            if want < 1e-300:
                continue
            tiny += want < 1e-200
            got = td.regime_transition_prob_finite(p, x0, t, direction).value
            assert float(abs(got - want) / want) <= 1e-12
            assert got == pytest.approx(
                mixture(p.nu, p.sigma, p.x_star, x0, t, p.x_star), rel=1e-12, abs=0.0
            )
    assert tiny >= 20


def test_finite_prob_validation():
    p = td.ModelParams(1.0, 0.2, 0.0)
    with pytest.raises(td.ValidationError):
        td.regime_transition_prob_finite(p, -0.5, 1.0, H2D)
    with pytest.raises(td.ValidationError):
        td.regime_transition_prob_finite(p, 0.5, 1.0, D2H)
    with pytest.raises(td.ValidationError):
        td.regime_transition_prob_finite(p, 0.5, 0.0, H2D)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    nu=st.floats(0.0, 5.0),
    sigma=st.floats(0.01, 2.0),
    x_star=st.floats(-3.0, 3.0),
    offsets=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 10.0)), min_size=1, max_size=5),
    horizons=st.lists(st.floats(1e-4, 1e3), min_size=1, max_size=5),
    direction=st.sampled_from([H2D, D2H]),
    bad=st.one_of(st.none(), st.tuples(st.integers(0, 5), st.sampled_from([0.0, -0.0, -1.5]))),
)
def test_finite_prob_kernel_equals_the_scalar_reference(
    nu, sigma, x_star, offsets, horizons, direction, bad
):
    # every (x0, T) of the broadcast grid is bit for bit the scalar
    # formula, in both directions and at x0 == x_star (offset 0)
    p = td.ModelParams(nu, sigma, x_star)
    x0 = x_star + (1.0 if direction is H2D else -1.0) * np.array(offsets)
    got = td.regime_transition_probs_finite(p, x0[:, None], horizons, direction)
    want = np.array([
        [regime_transition_prob_finite_reference(p, float(x), t, direction).value for t in horizons]
        for x in x0
    ])
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    scalar = td.regime_transition_prob_finite(p, float(x0[0]), horizons[0], direction)
    assert scalar.value == want[0, 0]
    # and agrees with quadrature of the density within the quadrature's
    # own tolerance (epsabs = epsrel = 1e-10)
    quad_value = _finite_prob_quadrature(p, float(x0[0]), horizons[0], direction)
    assert abs(got[0, 0] - quad_value) <= 1e-9
    if bad is not None:
        # the first horizon that is not > 0, in input order, is named
        at, value = bad
        ladder = horizons[:at] + [value] + horizons[at:] + [-7.0]
        with pytest.raises(td.ValidationError) as kernel_error:
            td.regime_transition_probs_finite(p, x0, np.array(ladder)[:, None], direction)
        with pytest.raises(td.ValidationError) as scalar_error:
            regime_transition_prob_finite_reference(p, float(x0[0]), value, direction)
        message = f"horizon must be > 0, got {value}"
        assert str(kernel_error.value) == str(scalar_error.value) == message


def test_finite_prob_kernel_on_long_arrays_equals_the_scalar_reference():
    # numpy's loops over long arrays may take SIMD paths that short ones
    # do not; 60,000 (x0, T) pairs stay bit for bit the scalar formula
    rng = np.random.default_rng(13)
    for direction in (H2D, D2H):
        for _ in range(3):
            p = _random_params(rng)
            if p.sigma == 0:
                continue
            sign = 1.0 if direction is H2D else -1.0
            x0 = p.x_star + sign * np.exp(rng.uniform(-8.0, 2.0, 10_000))
            t = np.exp(rng.uniform(-6.0, 6.0, 10_000))
            got = td.regime_transition_probs_finite(p, x0, t, direction)
            want = np.array([
                regime_transition_prob_finite_reference(p, a, b, direction).value
                for a, b in zip(x0.tolist(), t.tolist())
            ])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_finite_prob_kernel_names_the_first_start_on_the_wrong_side():
    p = td.ModelParams(1.0, 0.2, 0.5)
    with pytest.raises(td.ValidationError, match=r"x0 >= x_star, got x0=0.25 < 0.5"):
        td.regime_transition_probs_finite(p, [0.7, 0.5, 0.25, -1.0], 1.0, H2D)
    with pytest.raises(td.ValidationError, match=r"x0 <= x_star, got x0=0.75 > 0.5"):
        td.regime_transition_probs_finite(p, [[0.1], [0.75], [2.0]], [1.0, 2.0], D2H)


def test_monotone_approach_to_asymptote():
    # sigma * nu * sqrt(T) >= 5 ladder: discrepancy shrinks as T doubles
    p = td.ModelParams(1.0, 1.0, 0.0)
    x0 = 0.4
    limit = td.default_prob_asymptotic(p, math.exp(x0), H2D).value
    gaps = []
    for horizon in (25.0, 50.0, 100.0, 200.0):
        assert p.sigma * p.nu * math.sqrt(horizon) >= 5.0
        v = td.regime_transition_prob_finite(p, x0, horizon, H2D).value
        gaps.append(abs(v - limit))
    # The true gaps are 3.9e-9, 5.5e-15, 2.8e-26 and 1.9e-48: float64
    # resolves the first two, and from T = 100 on the exact value rounds
    # to the limit.
    assert gaps[0] > gaps[1] > 0.0
    assert max(gaps[2:]) <= 2 * math.ulp(limit)


# ---------------------------------------------------------------------------
# asymptotic default probability


def test_default_prob_examples():
    p = td.ModelParams.from_threshold_price(1.0, 0.2, 100.0)
    r = td.default_prob_asymptotic(p, 150.0, H2D)
    assert r.value == pytest.approx(1.0 / (1.0 + 1.5**2), rel=1e-12)
    assert r.is_asymptotic
    # boundary limit from above
    eps = td.default_prob_asymptotic(p, 100.0 * (1 + 1e-12), H2D)
    assert eps.value == pytest.approx(0.5, abs=1e-10)


def test_default_prob_mirror_image():
    p = td.ModelParams.from_threshold_price(1.0, 0.2, 100.0)
    up = td.default_prob_asymptotic(p, 150.0, H2D).value
    dn = td.default_prob_asymptotic(p, 100.0**2 / 150.0, D2H).value
    assert up == pytest.approx(dn, rel=1e-12)
    assert up == pytest.approx(logistic_switch_prob(1.0, math.log(150.0), math.log(100.0)), rel=1e-12)


def test_default_prob_extreme_ratio_no_overflow():
    p = td.ModelParams.from_threshold_price(3.0, 0.2, 1.0)
    r = td.default_prob_asymptotic(p, 1e100, H2D)
    assert 0.0 <= r.value < 1e-300 or r.value == 0.0


def test_default_prob_validation():
    p = td.ModelParams.from_threshold_price(1.0, 0.2, 100.0)
    with pytest.raises(td.ValidationError):
        td.default_prob_asymptotic(p, -3.0, H2D)
    with pytest.raises(td.ValidationError):
        td.default_prob_asymptotic(p, 50.0, H2D)
    with pytest.raises(td.ValidationError):
        td.default_prob_asymptotic(p, 150.0, D2H)


def test_finite_prob_consistent_with_asymptotic():
    p = td.ModelParams.from_threshold_price(1.0, 0.2, 100.0)
    asym = td.default_prob_asymptotic(p, 150.0, H2D).value
    fin = td.regime_transition_prob_finite(p, math.log(150.0), 400.0, H2D).value
    assert fin == pytest.approx(asym, abs=0.005)


# ---------------------------------------------------------------------------
# nu = 0 degeneration


def test_nu_zero_reduces_to_driftless_gaussian():
    p = td.ModelParams(0.0, 0.7, 1.3)
    x0, t = 0.2, 2.5
    xs = np.linspace(-4, 4, 21)
    got = td.density_profile(p, xs, x0, t)
    want = norm.pdf(xs, loc=x0, scale=0.7 * math.sqrt(t))
    np.testing.assert_allclose(got, want, rtol=1e-13)
    assert np.all(np.asarray(td.drift(p, xs)) == 0.0)
    assert td.default_prob_asymptotic(p, 2.0, D2H).value == 0.5
    got_p = td.regime_transition_prob_finite(p, 2.0, 4.0, H2D).value
    assert got_p == pytest.approx(norm.cdf((1.3 - 2.0) / (0.7 * 2.0)), abs=1e-10)
