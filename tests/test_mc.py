"""Euler-Maruyama integrator: determinism, oracle agreement, estimators."""

import math

import numpy as np
import pytest
from scipy.stats import chi2, norm

import tanhdrift as td
from tanhdrift.mc import (
    MCEstimate,
    SimConfig,
    _step_normals,
    mc_transition_prob,
    simulate,
    terminal_values,
    write_ensemble_csv,
)

from oracles import mixture_prob_below, step_normals_reference

H2D = td.Direction.HEALTHY_TO_DISTRESSED
D2H = td.Direction.DISTRESSED_TO_HEALTHY


def test_config_validation():
    with pytest.raises(td.ValidationError):
        SimConfig(n_paths=0, dt=0.01, horizon=1.0, seed=1, x0=0.0)
    with pytest.raises(td.ValidationError):
        SimConfig(n_paths=10, dt=-0.01, horizon=1.0, seed=1, x0=0.0)
    with pytest.raises(td.ValidationError):
        SimConfig(n_paths=10, dt=1.0, horizon=1.0, seed=1, x0=0.0)
    with pytest.raises(td.ValidationError):
        SimConfig(n_paths=10, dt=0.3, horizon=1.0, seed=1, x0=0.0)
    with pytest.raises(td.ValidationError, match="seed must be >= 0, got -1"):
        SimConfig(n_paths=10, dt=0.01, horizon=1.0, seed=-1, x0=0.0)
    cfg = SimConfig(n_paths=10, dt=0.01, horizon=1.0, seed=1, x0=0.0)
    assert cfg.n_steps == 100


def test_no_drift_no_noise_paths_constant():
    p = td.ModelParams(nu=0.0, sigma=0.0, x_star=0.0)
    cfg = SimConfig(n_paths=5, dt=0.1, horizon=1.0, seed=3, x0=1.7)
    ens = simulate(p, cfg)
    assert np.all(ens.paths == 1.7)
    assert ens.paths.shape == (5, 11)
    np.testing.assert_allclose(ens.times, np.arange(11) * 0.1)


def test_driftless_terminal_mean():
    # Euler is exact for pure Brownian motion, so coarse steps suffice
    p = td.ModelParams(nu=0.0, sigma=1.0, x_star=0.0)
    cfg = SimConfig(n_paths=1_000_000, dt=0.25, horizon=1.0, seed=11, x0=0.0)
    xt = terminal_values(p, cfg)
    assert abs(float(np.mean(xt))) < 3.0 / math.sqrt(1_000_000)


def test_early_mean_drift_matches_local_drift():
    p = td.ModelParams(nu=1.0, sigma=0.2, x_star=0.0)
    horizon = 0.05
    cfg = SimConfig(n_paths=50_000, dt=0.005, horizon=horizon, seed=12, x0=2.0)
    xt = terminal_values(p, cfg)
    observed = float(np.mean(xt) - 2.0) / horizon
    expected = float(td.drift(p, 2.0))  # = mu_tilde * tanh(2) ~ 0.03856
    assert expected == pytest.approx(0.0385611, abs=1e-6)
    se = p.sigma * math.sqrt(horizon) / math.sqrt(cfg.n_paths) / horizon
    assert observed == pytest.approx(expected, abs=3 * se + 1e-4)


def test_bitwise_determinism():
    p = td.ModelParams(nu=1.2, sigma=0.4, x_star=0.1)
    cfg = SimConfig(n_paths=64, dt=0.02, horizon=0.5, seed=2024, x0=0.9)
    a = simulate(p, cfg)
    b = simulate(p, cfg)
    assert np.array_equal(a.paths, b.paths)
    assert np.array_equal(a.times, b.times)
    # streaming estimator consumes the identical draws
    assert np.array_equal(terminal_values(p, cfg), a.paths[:, -1])


def test_path_prefix_independent_of_ensemble_size():
    # counter-based keying: adding paths must not change existing ones
    p = td.ModelParams(nu=1.2, sigma=0.4, x_star=0.1)
    small = SimConfig(n_paths=16, dt=0.02, horizon=0.5, seed=7, x0=0.9)
    large = SimConfig(n_paths=64, dt=0.02, horizon=0.5, seed=7, x0=0.9)
    a = simulate(p, small)
    b = simulate(p, large)
    assert np.array_equal(b.paths[:16], a.paths)


def test_per_path_parameters_match_scalar_runs():
    # path i of a per-path ensemble is path i of a scalar run of its own
    # parameters and start, bit for bit
    rng = np.random.default_rng(12)
    n = 9
    params = [
        td.ModelParams(nu=float(nu), sigma=float(sig), x_star=float(xs))
        for nu, sig, xs in zip(rng.uniform(0, 3, n), rng.uniform(0.05, 0.5, n),
                               rng.uniform(-1, 1, n))
    ]
    params[0] = td.ModelParams(nu=0.0, sigma=0.3, x_star=0.2)  # driftless name
    x0s = tuple(float(x) for x in rng.uniform(-2, 2, n))
    cfg = SimConfig(n_paths=n, dt=0.01, horizon=0.5, seed=77, x0=x0s)
    ens = simulate(params, cfg)
    assert ens.paths.shape == (n, 51)
    assert np.array_equal(ens.paths[:, 0], x0s)
    assert np.array_equal(terminal_values(params, cfg), ens.paths[:, -1])
    for i, p in enumerate(params):
        scalar = SimConfig(n_paths=n, dt=0.01, horizon=0.5, seed=77, x0=x0s[i])
        assert np.array_equal(ens.paths[i], simulate(p, scalar).paths[i])


def test_per_path_lengths_validated():
    p = td.ModelParams(nu=1.0, sigma=0.3, x_star=0.0)
    with pytest.raises(td.ValidationError):
        SimConfig(n_paths=3, dt=0.1, horizon=1.0, seed=1, x0=(0.0, 0.1))
    cfg = SimConfig(n_paths=3, dt=0.1, horizon=1.0, seed=1, x0=(0.0, 0.1, 0.2))
    with pytest.raises(td.ValidationError):
        simulate([p, p], cfg)


def test_step_normals_reproducible_and_disjoint():
    z1 = step_normals_reference(5, 3, 100)
    z2 = step_normals_reference(5, 3, 100)
    assert np.array_equal(z1, z2)
    assert not np.array_equal(step_normals_reference(5, 4, 100), z1)
    assert not np.array_equal(step_normals_reference(6, 3, 100), z1)


_SEEDS = [0, 2**62 - 1] + [int(s) for s in np.random.default_rng(8).integers(0, 2**62, 3)]


@pytest.mark.parametrize("seed", _SEEDS)
def test_step_streams_equal_the_jumped_reference(seed):
    # one bit generator, reset and advanced per step, draws what a fresh
    # Philox(seed).jumped(k) draws, bit for bit, far past 2**32 steps too
    steps = [0, 1, 2, 2**32 - 1, 2**32, 2**32 + 5, 2**64 + 3]
    for n in (1, 100_001):
        for k, z in zip(steps, _step_normals(seed, steps, n), strict=True):
            want = step_normals_reference(seed, k, n)
            assert np.array_equal(z.view(np.uint64), want.view(np.uint64)), (k, n)


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("nu", [0.0, 1.5])
def test_simulate_draws_equal_the_jumped_reference(seed, nu):
    # the integrator's steps, replayed on the reference draws, give the
    # same paths and terminal values bit for bit
    params = td.ModelParams(nu=nu, sigma=0.8, x_star=0.1)
    for n in (1, 100_001):
        cfg = SimConfig(n_paths=n, dt=0.25, horizon=1.0, seed=seed, x0=0.3)
        mu_dt, sig_sqdt = params.mu_tilde * cfg.dt, params.sigma * math.sqrt(cfg.dt)
        x = np.full(n, 0.3)
        want = [x.copy()]
        for k in range(cfg.n_steps):
            if nu > 0:
                x += np.tanh((x - params.x_star) * params.nu) * mu_dt
            x += step_normals_reference(seed, k, n) * sig_sqdt
            want.append(x.copy())
        want = np.stack(want, axis=1)
        assert np.array_equal(simulate(params, cfg).paths.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(terminal_values(params, cfg).view(np.uint64),
                              want[:, -1].view(np.uint64))


def test_transition_prob_boundary_half():
    p = td.ModelParams(nu=1.0, sigma=0.3, x_star=0.4)
    cfg = SimConfig(n_paths=40_000, dt=0.01, horizon=1.0, seed=21, x0=0.4)
    for direction in (H2D, D2H):
        est = mc_transition_prob(p, cfg, direction)
        assert est.value == pytest.approx(0.5, abs=3 * est.std_error)
        assert est.n == 40_000


def test_transition_prob_gaussian_case():
    p = td.ModelParams(nu=0.0, sigma=1.0, x_star=0.0)
    cfg = SimConfig(n_paths=100_000, dt=0.01, horizon=1.0, seed=22, x0=1.0)
    est = mc_transition_prob(p, cfg, H2D)
    assert est.value == pytest.approx(norm.cdf(-1.0), abs=3 * est.std_error)


def test_transition_prob_wrong_side_rejected():
    p = td.ModelParams(nu=1.0, sigma=0.3, x_star=0.0)
    cfg = SimConfig(n_paths=100, dt=0.01, horizon=1.0, seed=1, x0=-1.0)
    with pytest.raises(td.ValidationError):
        mc_transition_prob(p, cfg, H2D)


def test_transition_prob_rejects_per_path_start():
    p = td.ModelParams(nu=1.0, sigma=0.3, x_star=0.0)
    for x0 in ((0.5, 0.7), [0.5, 0.7]):
        cfg = SimConfig(n_paths=2, dt=0.01, horizon=1.0, seed=1, x0=x0)
        for direction in (H2D, D2H):
            with pytest.raises(td.ValidationError):
                mc_transition_prob(p, cfg, direction)


def test_transition_prob_rejects_per_path_params():
    p = td.ModelParams(nu=1.0, sigma=0.3, x_star=0.0)
    cfg = SimConfig(n_paths=2, dt=0.01, horizon=1.0, seed=1, x0=0.5)
    for params in ([p, p], (p, p)):
        with pytest.raises(td.ValidationError):
            mc_transition_prob(params, cfg, H2D)


def test_transition_prob_matches_quadrature():
    p = td.ModelParams(nu=1.0, sigma=0.5, x_star=0.0)
    cfg = SimConfig(n_paths=100_000, dt=0.01, horizon=2.0, seed=23, x0=0.6)
    est = mc_transition_prob(p, cfg, H2D)
    truth = td.regime_transition_prob_finite(p, 0.6, 2.0, H2D).value
    assert est.value == pytest.approx(truth, abs=3 * est.std_error + 0.005)


@pytest.mark.slow
def test_transition_prob_long_horizon_matches_asymptote():
    # S_star = 100, S0 = 150, T = 400y at dt = 0.01 with 1e5 paths: the
    # documented long-horizon case; runs about a minute.
    p = td.ModelParams.from_threshold_price(1.0, 0.2, 100.0)
    cfg = SimConfig(n_paths=100_000, dt=0.01, horizon=400.0, seed=4, x0=math.log(150.0))
    est = mc_transition_prob(p, cfg, H2D)
    quad_value = td.regime_transition_prob_finite(p, math.log(150.0), 400.0, H2D).value
    assert quad_value == pytest.approx(0.3077, abs=1e-3)
    assert est.value == pytest.approx(quad_value, abs=3 * est.std_error + 0.005)


def test_histogram_gaussian_case():
    p = td.ModelParams(nu=0.0, sigma=1.0, x_star=0.0)
    cfg = SimConfig(n_paths=1_000_000, dt=0.25, horizon=1.0, seed=31, x0=0.0)
    density, edges = np.histogram(terminal_values(p, cfg), bins=100, range=(-5.0, 5.0),
                                  density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    assert float(np.max(np.abs(density - norm.pdf(centers)))) < 0.01


def test_histogram_chi_squared_against_closed_form():
    p = td.ModelParams(nu=1.0, sigma=0.4, x_star=0.0)
    cfg = SimConfig(n_paths=50_000, dt=0.002, horizon=1.0, seed=37, x0=0.2)
    xt = terminal_values(p, cfg)
    edges = np.linspace(np.min(xt) - 1e-9, np.max(xt) + 1e-9, 41)
    counts, _ = np.histogram(xt, bins=edges)
    probs = np.array([
        mixture_prob_below(p.nu, p.sigma, p.x_star, 0.2, 1.0, hi)
        - mixture_prob_below(p.nu, p.sigma, p.x_star, 0.2, 1.0, lo)
        for lo, hi in zip(edges[:-1], edges[1:])
    ])
    # merge sparse tail bins so every expected count is >= 5
    expected = probs * cfg.n_paths
    keep = expected >= 5
    o = np.concatenate([counts[keep], [counts[~keep].sum()]]).astype(float)
    e = np.concatenate([expected[keep], [expected[~keep].sum()]])
    stat = float(np.sum((o - e) ** 2 / e))
    dof = len(e) - 1
    assert stat < chi2.ppf(0.999, dof)


def test_paths_finite_and_bounded():
    p = td.ModelParams(nu=3.0, sigma=1.0, x_star=0.0)
    cfg = SimConfig(n_paths=2_000, dt=0.01, horizon=5.0, seed=41, x0=0.0)
    ens = simulate(p, cfg)
    assert np.all(np.isfinite(ens.paths))
    # |X_T - x0| <= mu_tilde T + noise; 8 sd leaves ~0 probability mass
    bound = p.mu_tilde * 5.0 + 8.0 * p.sigma * math.sqrt(5.0)
    assert float(np.max(np.abs(ens.paths))) < bound


def test_weak_convergence_trend_with_coupled_increments():
    # same Brownian increments aggregated to coarser steps: the bias
    # against the exact probability halves as dt halves
    nu, sigma, x_star, x0, horizon = 2.0, 0.5, 0.0, 0.3, 1.0
    params = td.ModelParams(nu, sigma, x_star)
    exact = mixture_prob_below(nu, sigma, x_star, x0, horizon, x_star)
    n, seed, n_fine = 200_000, 99, 100
    fine = np.stack([step_normals_reference(seed, k, n) for k in range(n_fine)])
    errors = []
    for agg, dt in ((4, 0.04), (2, 0.02), (1, 0.01)):
        x = np.full(n, x0)
        sq_dt = math.sqrt(dt)
        for k in range(n_fine // agg):
            z = fine[k * agg : (k + 1) * agg].sum(axis=0) / math.sqrt(agg)
            x = x + params.mu_tilde * np.tanh(nu * (x - x_star)) * dt + sigma * sq_dt * z
        errors.append(abs(float(np.mean(x <= x_star)) - exact))
    assert errors[0] > errors[1] > errors[2]


def test_mc_estimate_invariants():
    with pytest.raises(td.ValidationError):
        MCEstimate(value=0.5, std_error=-1.0, n=10)
    with pytest.raises(td.ValidationError):
        MCEstimate(value=0.5, std_error=0.0, n=0)


def test_ensemble_csv_dump(tmp_path):
    p = td.ModelParams(nu=0.5, sigma=0.3, x_star=0.0)
    cfg = SimConfig(n_paths=3, dt=0.5, horizon=1.0, seed=9, x0=0.1)
    ens = simulate(p, cfg)
    out = tmp_path / "ensemble.csv"
    write_ensemble_csv(ens, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path_id,step,x"
    assert len(lines) == 1 + 3 * 3  # header + n_paths * (n_steps + 1)
    pid, step, x = lines[1].split(",")
    assert (pid, step) == ("0", "0")
    assert float(x) == 0.1
    last = lines[-1].split(",")
    assert last[0] == "2" and last[1] == "2"
    assert float(last[2]) == ens.paths[2, 2]
    # byte for byte the one-row-at-a-time writer
    expected = "path_id,step,x\n" + "".join(
        f"{i},{k},{float(ens.paths[i, k])!r}\n" for i in range(3) for k in range(3)
    )
    assert out.read_text() == expected
