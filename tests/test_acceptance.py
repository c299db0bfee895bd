"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they print. Every tolerance is pinned here, never loosened at runtime.
"""

import math
import time

import numpy as np
from scipy.stats import norm

import tanhdrift as td
from tanhdrift import fokker_planck as fp
from tanhdrift.cds import extract_universe, load_spread_series, rolling_extract
from tanhdrift.cli import EXIT_OK, main
from tanhdrift.mc import SimConfig, mc_transition_prob
from tanhdrift.portfolio import RebalanceSchedule, backtest, signal_quality
from tanhdrift.universe import (
    UniverseSpec,
    generate_universe,
    load_manifest,
    load_price_series,
    load_truth,
)

import test_cds
from oracles import _finite_prob_quadrature

H2D = td.Direction.HEALTHY_TO_DISTRESSED
D2H = td.Direction.DISTRESSED_TO_HEALTHY


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_normalization():
    start = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    n_sets = 0
    while n_sets < 50:
        p = td.ModelParams(
            nu=rng.uniform(0.0, 3.0),
            sigma=rng.uniform(0.05, 1.0),
            x_star=rng.uniform(-1.0, 1.0),
        )
        x0 = p.x_star + rng.uniform(-5.0, 5.0)
        t = rng.uniform(0.01, 10.0)
        worst = max(worst, abs(td.density_normalization(p, x0, t) - 1.0))
        n_sets += 1
    elapsed = time.time() - start
    _report(
        1, "density normalization", worst < 1e-8 and elapsed < 5.0,
        f"max |integral - 1| = {worst:.2e} over 50 sets, {elapsed:.2f}s",
    )


def test_criterion_02_constant_schrodinger_potential():
    start = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        p = td.ModelParams(
            nu=rng.uniform(0.0, 3.0),
            sigma=rng.uniform(0.05, 1.0),
            x_star=rng.uniform(-1.0, 1.0),
        )
        xs = p.x_star + rng.uniform(-6.0, 6.0, 10_000)
        h = td.drift(p, xs) / (p.sigma * p.sigma)
        delta = 1e-6
        h_hi = td.drift(p, xs + delta) / (p.sigma * p.sigma)
        h_lo = td.drift(p, xs - delta) / (p.sigma * p.sigma)
        u = h * h + (h_hi - h_lo) / (2.0 * delta)
        worst = max(worst, float(np.max(np.abs(u - p.nu**2))))
    elapsed = time.time() - start
    _report(
        2, "constant reduced potential", worst < 1e-6 and elapsed < 1.0,
        f"max |h^2 + h' - nu^2| = {worst:.2e} at 1e4 points x 20 sets, {elapsed:.2f}s",
    )


def test_criterion_03_pde_oracle_triangle():
    start = time.time()
    p = td.ModelParams(1.0, 0.2, 0.0)
    x0, horizon = 0.5, 2.0
    margin = 5.0 * p.sigma * math.sqrt(horizon) + p.mu_tilde * horizon
    pad = p.sigma * math.sqrt(horizon)

    def run(dx, dt_step):
        lo = x0 - margin - pad
        n_x = int(math.ceil(2.0 * (margin + pad) / dx)) + 1
        grid = fp.GridSpec(x_min=lo, x_max=lo + (n_x - 1) * dx, n_x=n_x, dt=dt_step)
        field = fp.solve_fp(p, x0, horizon, grid)
        closed = np.asarray(td.density_profile(p, grid.x, x0, horizon))
        region = closed > 1e-6 * float(np.max(closed))
        return float(np.max(np.abs(field.values[region] - closed[region]) / closed[region]))

    err = run(0.005, 1e-4)
    err_refined = run(0.0025, 5e-5)
    ratio = err / err_refined
    elapsed = time.time() - start
    _report(
        3, "pde vs closed form", err < 1e-2 and 2.5 < ratio < 6.5 and elapsed < 60.0,
        f"L_inf rel = {err:.3e} (tol 1e-2), refinement improvement x{ratio:.2f}, {elapsed:.1f}s",
    )


def test_criterion_04_monte_carlo_agreement():
    start = time.time()
    cases = [
        (td.ModelParams(0.0, 1.0, 0.0), 1.0, 1.0, H2D),
        (td.ModelParams.from_threshold_price(1.0, 0.2, 100.0), math.log(150.0), 2.0, H2D),
        (td.ModelParams(2.0, 0.5, 0.0), 0.3, 1.0, H2D),
        (td.ModelParams(1.0, 1.0, 0.0), -0.5, 2.0, D2H),
        (td.ModelParams(0.5, 0.3, 0.2), 0.9, 4.0, H2D),
    ]
    details = []
    ok = True
    for i, (p, x0, horizon, direction) in enumerate(cases):
        quad_value = td.regime_transition_prob_finite(p, x0, horizon, direction).value
        if i == 0:
            ok &= abs(quad_value - norm.cdf(-1.0)) < 1e-10
        cfg = SimConfig(n_paths=100_000, dt=0.01, horizon=horizon, seed=100 + i, x0=x0)
        est = mc_transition_prob(p, cfg, direction)
        gap = abs(est.value - quad_value)
        tol = 3.0 * est.std_error + 0.005
        ok &= gap < tol
        details.append(f"{gap:.4f}<{tol:.4f}")
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    _report(4, "monte carlo vs quadrature", ok, f"gaps {', '.join(details)}, {elapsed:.1f}s")


def test_criterion_05_asymptotic_default_probability():
    start = time.time()
    p = td.ModelParams.from_threshold_price(1.0, 0.2, 100.0)
    limit = td.default_prob_asymptotic(p, 150.0, H2D).value
    ok = abs(limit - 1.0 / 3.25) < 1e-12
    gaps = []
    for horizon in (25.0, 100.0, 400.0):
        v = td.regime_transition_prob_finite(p, math.log(150.0), horizon, H2D).value
        gaps.append(abs(v - limit))
    elapsed = time.time() - start
    ok &= gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.005 and elapsed < 10.0
    _report(
        5, "asymptotic default probability", ok,
        f"|finite - 0.307692| = {gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e}, {elapsed:.1f}s",
    )


def test_criterion_06_boundary_symmetry():
    start = time.time()
    ok = True
    worst_quad = 0.0
    worst_mc = 0.0
    for i, (nu, sigma, t) in enumerate([(1.0, 0.2, 1.0), (2.0, 0.6, 0.5), (0.3, 1.0, 3.0)]):
        p = td.ModelParams(nu, sigma, 0.4)
        for direction in (H2D, D2H):
            shortcut = td.regime_transition_prob_finite(p, p.x_star, t, direction).value
            ok &= shortcut == 0.5
            raw = _finite_prob_quadrature(p, p.x_star, t, direction)
            worst_quad = max(worst_quad, abs(raw - 0.5))
            cfg = SimConfig(n_paths=40_000, dt=0.01, horizon=t, seed=200 + i, x0=p.x_star)
            est = mc_transition_prob(p, cfg, direction)
            worst_mc = max(worst_mc, abs(est.value - 0.5) / est.std_error)
    ok &= worst_quad < 1e-10 and worst_mc < 3.0
    elapsed = time.time() - start
    _report(
        6, "boundary symmetry", ok,
        f"quadrature off by {worst_quad:.1e} (tol 1e-10), mc within {worst_mc:.2f} se, {elapsed:.1f}s",
    )


def test_criterion_07_regression_identifiability():
    series = test_cds._line_series(21, a_tilde=3.0, nu=0.8)
    first, last = series.dates[0], series.dates[-1]
    rec = test_cds._fit(series, first, last)
    ok = abs(rec.nu_hat - 0.8) < 1e-10 and abs(rec.a_tilde - 3.0) < 1e-10
    worst_nu, worst_a = 0.0, 0.0
    for c in (7.0, 1e-3, 2.5e4):
        scaled = test_cds._series(series.price, series.spread * c)
        rec_c = test_cds._fit(scaled, first, last)
        worst_nu = max(worst_nu, abs(rec_c.nu_hat - rec.nu_hat))
        worst_a = max(worst_a, abs((rec_c.a_tilde - rec.a_tilde) - math.log(c)))
    # "bit-stable": stable to machine precision under spread rescaling
    ok &= worst_nu < 1e-12 and worst_a < 1e-10
    _report(
        7, "regression identifiability", ok,
        f"line recovered to {abs(rec.nu_hat - 0.8):.1e}; rescale moves nu_hat {worst_nu:.1e}, "
        f"intercept off ln c by {worst_a:.1e}",
    )


def test_criterion_08_small_p_bias_ladder(tmp_path):
    start = time.time()
    biases = {}
    for ratio in (1.5, 3.0, 10.0):
        out = tmp_path / f"r{ratio}"
        spec = UniverseSpec(
            n_names=20,
            days=63,
            seed=808,
            nu_range=(1.2, 2.5),
            sigma_range=(0.1, 0.15),
            ratio_range=(ratio, ratio),
            noise_sigma=0.0,
        )
        generate_universe(spec, out)
        truth = load_truth(out / "truth.csv")
        per_name = []
        for name, _pf, sf in load_manifest(out / "manifest.csv"):
            recs = rolling_extract(load_spread_series(sf, name=name), 21, 21)
            nu_hat = float(np.median(recs.nu_hat))
            per_name.append(abs(nu_hat - truth[name]))
        biases[ratio] = (float(np.mean(per_name)), float(np.max(per_name)))
    means = [biases[r][0] for r in (1.5, 3.0, 10.0)]
    ok = means[0] > means[1] > means[2] and biases[10.0][1] < 0.01
    elapsed = time.time() - start
    _report(
        8, "small-P linearization bias", ok,
        f"mean bias {means[0]:.3f} > {means[1]:.3f} > {means[2]:.4f}; "
        f"max at ratio 10 = {biases[10.0][1]:.4f} (tol 0.01), {elapsed:.1f}s",
    )


def test_criterion_09_end_to_end_pipeline(tmp_path):
    start = time.time()

    def run(noise, out):
        spec = UniverseSpec(n_names=100, days=504, seed=2024, noise_sigma=noise)
        generate_universe(spec, out)
        rows = load_manifest(out / "manifest.csv")
        signals, errors = extract_universe([(name, sf) for name, _pf, sf in rows], 21, 21)
        assert errors == []
        truth = load_truth(out / "truth.csv")
        extracted = {n: float(np.median(signals.nu_hat[r])) for n, r in signals.by_name().items()}
        rho = signal_quality(truth, extracted)
        prices = {name: load_price_series(pf) for name, pf, _sf in rows}
        report = backtest(prices, signals, RebalanceSchedule(every=21))
        return rho, report

    rho_clean, report_clean = run(0.0, tmp_path / "clean")
    rho_noisy, _ = run(0.1, tmp_path / "noisy")
    spread = report_clean.long_leg_mean_daily - report_clean.short_leg_mean_daily
    ok = rho_clean > 0.99 and rho_noisy > 0.9 and spread > 0.0
    elapsed = time.time() - start
    ok &= elapsed < 300.0
    _report(
        9, "end-to-end pipeline", ok,
        f"spearman clean {rho_clean:.4f} (tol 0.99), noisy {rho_noisy:.4f} (tol 0.9), "
        f"long-short daily spread {spread:.2e}, {elapsed:.1f}s",
    )


def test_criterion_10_portfolio_invariants(tmp_path):
    # (a) dollar neutrality and unit gross at every rebalance
    uni = tmp_path / "uni"
    assert main([
        "synth-universe", "--n-names", "20", "--days", "126", "--seed", "555",
        "--out-dir", str(uni),
    ]) == EXIT_OK
    sig = tmp_path / "signals.csv"
    assert main([
        "extract", "--manifest", str(uni / "manifest.csv"), "--out", str(sig),
    ]) == EXIT_OK
    bt1 = tmp_path / "bt1"
    assert main([
        "backtest", "--manifest", str(uni / "manifest.csv"), "--signals", str(sig),
        "--out-dir", str(bt1),
    ]) == EXIT_OK
    worst_net, worst_gross = 0.0, 0.0
    held_files = 0
    for wf in sorted((bt1 / "weights").glob("*.csv")):
        weights = [float(line.split(",")[1]) for line in wf.read_text().splitlines()[1:]]
        if not weights:
            continue
        held_files += 1
        worst_net = max(worst_net, abs(math.fsum(weights)))
        worst_gross = max(worst_gross, abs(math.fsum(abs(w) for w in weights) - 1.0))
    invariants_ok = held_files > 0 and worst_net < 1e-12 and worst_gross < 1e-12

    # (b) no lookahead: perturb a price strictly after the first held rebalance
    rows = load_manifest(uni / "manifest.csv")
    prices = {name: load_price_series(pf) for name, pf, _sf in rows}
    from tanhdrift.cds import load_signals_csv

    signals = load_signals_csv(sig)
    base = backtest(prices, signals, RebalanceSchedule(every=21))
    first_held = next(s for s in base.rebalances if s.weights)
    perturbed = dict(prices)
    name0 = rows[0][0]
    days0, prices0 = prices[name0]
    perturbed[name0] = (days0, np.where(days0 > np.datetime64(first_held.date), 5.0, 1.0) * prices0)
    moved = backtest(perturbed, signals, RebalanceSchedule(every=21))
    matching = next(s for s in moved.rebalances if s.date == first_held.date)
    lookahead_ok = matching.weights == first_held.weights

    # (c) byte-identical rerun of the whole chain from the resolved configs
    uni2 = tmp_path / "uni2"
    assert main([
        "synth-universe", "--config", str(uni / "synth_universe_config.json"),
        "--out-dir", str(uni2),
    ]) == EXIT_OK
    sig2 = tmp_path / "signals2.csv"
    assert main([
        "extract", "--config", str(tmp_path / "extract_config.json"),
        "--manifest", str(uni2 / "manifest.csv"), "--out", str(sig2),
    ]) == EXIT_OK
    bt2 = tmp_path / "bt2"
    assert main([
        "backtest", "--config", str(bt1 / "backtest_config.json"),
        "--manifest", str(uni2 / "manifest.csv"), "--signals", str(sig2),
        "--out-dir", str(bt2),
    ]) == EXIT_OK

    def tree(root, skips):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name not in skips
        }

    skips = ("synth_universe_config.json", "extract_config.json", "backtest_config.json")
    rerun_ok = (
        tree(uni, skips) == tree(uni2, skips)
        and sig.read_bytes() == sig2.read_bytes()
        and tree(bt1, skips) == tree(bt2, skips)
    )
    ok = invariants_ok and lookahead_ok and rerun_ok
    _report(
        10, "portfolio invariants", ok,
        f"net<=1e-12 and gross-1<=1e-12 on {held_files} held rebalances "
        f"(worst {worst_net:.1e}/{worst_gross:.1e}); lookahead {lookahead_ok}; "
        f"byte-identical rerun {rerun_ok}",
    )
