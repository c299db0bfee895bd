"""Command-line front end: wiring, exit codes, reproducibility."""

import datetime as dt
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tanhdrift as td
from tanhdrift.cli import (
    COMMANDS,
    EXIT_DATA,
    EXIT_OK,
    EXIT_TOLERANCE,
    EXIT_VALIDATION,
    _command_parser,
    main,
)
from tanhdrift.cds import load_signals_csv, load_spread_series, rolling_extract
from tanhdrift.mc import SimConfig, simulate
from tanhdrift.universe import (
    UniverseSpec,
    generate_universe,
    load_manifest,
    load_truth,
    trading_dates,
)

from oracles import regime_transition_prob_finite_reference, trading_dates_reference


def _run(*args) -> int:
    return main([str(a) for a in args])


def _tree_bytes(root: Path, skip=()) -> dict[str, bytes]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name not in skip:
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


def test_cli_import_leaves_out_scipy_stats():
    src = str(Path(td.__file__).resolve().parents[1])
    code = (
        "import sys, tanhdrift.cli\n"
        "for name in ('scipy.stats', 'scipy.integrate', 'scipy.sparse'):\n"
        "    assert name not in sys.modules, name\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


# ---------------------------------------------------------------------------
# density


def test_density_gaussian_with_all_oracles(capsys):
    code = _run(
        "density", "--nu", 0, "--sigma", 1, "--x0", 0, "--t", 1,
        "--n-points", 25, "--compare-fp", "--compare-mc", "--mc-paths", 50_000,
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "closed_form" in out and "fokker_planck" in out and "monte_carlo" in out
    norm_line = next(line for line in out.splitlines() if line.startswith("# normalization"))
    integral = float(norm_line.split("=")[1].split("(")[0])
    assert abs(integral - 1.0) < 1e-8


def test_density_rejects_bad_t(capsys):
    assert _run("density", "--nu", 1, "--sigma", 0.2, "--x0", 0, "--t", -1) == EXIT_VALIDATION


def test_density_writes_csv_and_config(tmp_path):
    out = tmp_path / "dens"
    code = _run("density", "--nu", 1, "--sigma", 0.2, "--x0", 0.3, "--t", 0.5,
                "--n-points", 11, "--out-dir", out)
    assert code == EXIT_OK
    assert (out / "density.csv").exists()
    cfg = json.loads((out / "density_config.json").read_text())
    assert cfg["command"] == "density"
    assert cfg["options"]["nu"] == 1.0
    assert cfg["options"]["n_points"] == 11


@pytest.mark.parametrize("extra, expected", [
    # the closed form underflows to 0 on the table: no peak to scale by
    (["--x-min", 10, "--x-max", 11, "--compare-mc"], EXIT_VALIDATION),
    (["--x-min", 10, "--x-max", 11, "--compare-fp"], EXIT_VALIDATION),
    # no Monte Carlo path lands in the table: its column is all 0, a
    # discrepancy of 1 fails
    (["--x-min", 3, "--x-max", 4, "--compare-mc", "--mc-paths", 1000], EXIT_TOLERANCE),
], ids=["zero-peak-mc", "zero-peak-fp", "no-path-in-table"])
def test_density_comparison_off_the_mass(capsys, extra, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = _run("density", "--nu", 1, "--sigma", 0.2, "--x0", 0, "--t", 1, *extra)
    assert code == expected
    assert ("no peak" if expected == EXIT_VALIDATION else "1.000e+00 > 0.1") in capsys.readouterr().err


def test_density_monte_carlo_column_is_over_all_paths(tmp_path, capsys):
    # A table that holds part of the mass: the Monte Carlo column counts
    # the paths outside it too, so it matches the closed form; a table
    # that no path reaches reads 0 without a numpy warning.
    base = ["density", "--nu", 1, "--sigma", 0.2, "--x0", 0, "--t", 1, "--compare-mc"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(*base, "--x-min", 0, "--x-max", 0.5, "--n-points", 10,
                    "--mc-paths", 20000) == EXIT_OK
        assert _run(*base, "--x-min", 3, "--x-max", 4, "--mc-paths", 1000,
                    "--out-dir", tmp_path) == EXIT_TOLERANCE
    rows = (tmp_path / "density.csv").read_text().splitlines()
    assert rows[0] == "x,closed_form,monte_carlo"
    assert {row.split(",")[2] for row in rows[1:]} == {"0.0"}
    assert "monte-carlo discrepancy 1.000e+00 > 0.1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# default-prob


def test_default_prob_at_threshold_all_half(capsys):
    code = _run("default-prob", "--nu", 1.3, "--sigma", 0.4, "--s-star", 100, "--s0", 100,
                "--horizons", "1,5,25")
    out = capsys.readouterr().out
    assert code == EXIT_OK
    rows = [line.split() for line in out.splitlines() if line and not line.startswith("#")]
    values = [float(r[1]) for r in rows[1:]]  # skip header
    assert all(v == pytest.approx(0.5, abs=1e-12) for v in values)


def test_default_prob_monotone_ladder(capsys):
    code = _run("default-prob", "--nu", 1, "--sigma", 0.2, "--s-star", 100, "--s0", 150,
                "--horizons", "25,100,400")
    out = capsys.readouterr().out
    assert code == EXIT_OK
    data = [line.split() for line in out.splitlines() if line and not line.startswith("#")]
    finite = [float(r[1]) for r in data[1:4]]
    asym = float(data[4][1])
    assert asym == pytest.approx(1.0 / 3.25, abs=1e-6)
    gaps = [abs(v - asym) for v in finite]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.005


def test_default_prob_validity_flag(capsys):
    code = _run("default-prob", "--nu", 0.1, "--sigma", 0.1, "--s-star", 100, "--s0", 120,
                "--horizons", "1")
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "outside asymptotic validity" in out


@pytest.mark.parametrize("s0", [150.0, 60.0])
def test_default_prob_output_equals_the_scalar_reference(tmp_path, capsys, s0):
    # stdout and the CSV, byte for byte as one scalar call per horizon
    # writes them; sigma nu sqrt(36) = 3 sits on the validity boundary
    nu, sigma, s_star = 1.0, 0.5, 100.0
    horizons = [0.25, 35.99, 36.0, 1.0 / 3.0, 400.0, 1e-9]
    assert _run("default-prob", "--nu", nu, "--sigma", sigma, "--s-star", s_star, "--s0", s0,
                "--horizons", ",".join(map(repr, horizons)), "--out-dir", tmp_path) == EXIT_OK
    params = td.ModelParams.from_threshold_price(nu, sigma, s_star)
    x0 = math.log(s0)
    direction = (td.Direction.HEALTHY_TO_DISTRESSED if s0 > s_star
                 else td.Direction.DISTRESSED_TO_HEALTHY)
    asym = td.default_prob_asymptotic(params, s0, direction).value
    table = [f"# direction: {direction.value} (S0={s0!r}, S_star={params.s_star!r})",
             f"{'horizon_years':>14s}  {'probability':>14s}  {'sigma*nu*sqrtT':>14s}  validity"]
    csv = ["horizon_years,probability,sigma_nu_sqrt_t,valid"]
    for t in horizons:
        value = regime_transition_prob_finite_reference(params, x0, t, direction).value
        validity = params.sigma * params.nu * math.sqrt(t)
        flag = "ok" if validity >= 3.0 else "outside asymptotic validity"
        table.append(f"{t:>14.6g}  {value:>14.8g}  {validity:>14.4g}  {flag}")
        csv.append(f"{t!r},{value!r},{validity!r},{int(validity >= 3.0)}")
    table.append(f"{'asymptotic':>14s}  {asym:>14.8g}")
    csv.append(f"inf,{asym!r},,1")
    assert capsys.readouterr().out == "\n".join(table) + "\n"
    assert (tmp_path / "default_prob.csv").read_text() == "\n".join(csv) + "\n"
    assert csv[3].endswith(",3.0,1") and csv[2].endswith(",0")


def test_default_prob_names_the_first_bad_horizon(capsys):
    code = _run("default-prob", "--nu", 1, "--sigma", 0.2, "--s-star", 100, "--s0", 150,
                "--horizons", "5,-2,0,-3")
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "horizon must be > 0, got -2.0" in captured.err


# ---------------------------------------------------------------------------
# simulate / fp-check


def test_simulate_deterministic_dump(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--nu", 1, "--sigma", 0.3, "--x0", 0.2, "--n-paths", 50,
            "--dt", 0.05, "--horizon", 0.5, "--seed", 99]
    assert _run(*args, "--out-dir", a) == EXIT_OK
    assert _run(*args, "--out-dir", b) == EXIT_OK
    assert (a / "ensemble.csv").read_bytes() == (b / "ensemble.csv").read_bytes()


_NEGATIVE_SEEDS = {
    "simulate": ["simulate", "--nu", 1, "--sigma", 0.3, "--x0", 0.2, "--n-paths", 5,
                 "--dt", 0.05, "--horizon", 0.5, "--seed", -1],
    "density": ["density", "--nu", 1, "--sigma", 0.3, "--x0", 0.2, "--t", 0.5,
                "--compare-mc", "--mc-paths", 100, "--mc-seed", -5],
    "synth-universe": ["synth-universe", "--n-names", 3, "--days", 42, "--seed", -1],
}


@pytest.mark.parametrize("command", list(_NEGATIVE_SEEDS))
def test_negative_seed_is_a_validation_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert _run(*_NEGATIVE_SEEDS[command], "--out-dir", out) == EXIT_VALIDATION
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_fp_check_passes_at_reference_resolution(capsys):
    code = _run("fp-check", "--nu", 1, "--sigma", 0.2, "--x-star", 0, "--x0", 0.5,
                "--horizon", 2, "--dx", 0.005, "--dt", 2e-4)
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "L_inf relative error" in out
    drift = float(out.split("peak mass drift (max over steps of mass - 1): ")[1].split()[0])
    assert abs(drift) <= 1e-6


def test_fp_check_rejects_a_large_mesh_ratio(capsys):
    # sigma^2 dt / (2 dx^2) = 78: the solve would end in ToleranceError
    code = _run("fp-check", "--nu", 0, "--sigma", 0.1, "--x0", 0, "--horizon", 0.05,
                "--dx", 0.0004, "--dt", 0.0025)
    assert code == EXIT_VALIDATION
    assert "mesh ratio" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("fp-check", "--nu", 2, "--sigma", 1, "--x0", 0.5, "--horizon", 1, "--dx", 0.25,
     "--dt", 0.5),
    ("density", "--nu", 2, "--sigma", 1, "--x0", 0.5, "--t", 1, "--compare-fp",
     "--fp-dx", 0.25, "--fp-dt", 0.5),
])
def test_pde_rejects_a_large_courant_number(capsys, argv):
    # Peclet 0.5 and mesh ratio 4, but mu_tilde dt / dx = 4: the solve would
    # end in ToleranceError
    assert _run(*argv) == EXIT_VALIDATION
    assert "Courant number mu_tilde dt / dx = 4 > 1.7" in capsys.readouterr().err


def test_fp_check_fails_on_coarse_grid(capsys):
    code = _run("fp-check", "--nu", 1, "--sigma", 0.2, "--x-star", 0, "--x0", 0.5,
                "--horizon", 2, "--dx", 0.02, "--dt", 1e-3)
    assert code == EXIT_TOLERANCE


@pytest.mark.parametrize("dx, message", [("0", "--dx must be > 0, got 0.0"),
                                         ("-0.01", "--dx must be > 0, got -0.01"),
                                         ("5e-324", "--dx=5e-324 is too small for a grid")])
def test_fp_check_non_positive_dx_names_the_flag(capsys, dx, message):
    code = _run("fp-check", "--nu", 1, "--sigma", 0.2, "--x0", 0, "--horizon", 1,
                "--dt", 0.01, "--dx", dx)
    assert code == EXIT_VALIDATION
    assert f"validation error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("dx", ["0", "-0.01"])
def test_density_non_positive_fp_dx_names_the_flag(capsys, dx):
    code = _run("density", "--nu", 1, "--sigma", 0.2, "--x0", 0, "--t", 1, "--compare-fp",
                "--fp-dx", dx)
    assert code == EXIT_VALIDATION
    assert f"--fp-dx must be > 0, got {float(dx)!r}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth-universe


def test_synth_universe_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "u1", tmp_path / "u2"
    args = ["synth-universe", "--n-names", 8, "--days", 42, "--seed", 31]
    assert _run(*args, "--out-dir", a) == EXIT_OK
    assert _run(*args, "--out-dir", b) == EXIT_OK
    ta = _tree_bytes(a, skip=("synth_universe_config.json",))
    tb = _tree_bytes(b, skip=("synth_universe_config.json",))
    assert ta == tb


def test_synth_universe_rejects_distressed_start(tmp_path):
    code = _run("synth-universe", "--n-names", 3, "--days", 42, "--seed", 1,
                "--out-dir", tmp_path / "u", "--ratio-range", "0.5,2")
    assert code == EXIT_VALIDATION


def _universe_draws(spec):
    """The spec's draws in generate_universe's order: per-name parameters,
    S0/S* ratios, simulation seeds and noise seeds."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_names
    nus = rng.uniform(*spec.nu_range, n)
    sigmas = rng.uniform(*spec.sigma_range, n)
    s_stars = rng.uniform(*spec.s_star_range, n)
    ratios = rng.uniform(*spec.ratio_range, n)
    sim_seeds = rng.integers(0, 2**62, size=n)
    noise_seeds = rng.integers(0, 2**62, size=n)
    return nus, sigmas, s_stars, ratios, sim_seeds, noise_seeds


def _read_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def test_synth_universe_prices_match_scalar_simulation(tmp_path):
    # name i is path i of one ensemble seeded with the first simulation
    # seed: a scalar run of name i's own parameters gives its prices
    spec = UniverseSpec(n_names=7, days=30, seed=5)
    generate_universe(spec, tmp_path)
    nus, sigmas, s_stars, ratios, sim_seeds, _ = _universe_draws(spec)
    for i in range(spec.n_names):
        params = td.ModelParams.from_threshold_price(float(nus[i]), float(sigmas[i]),
                                                     float(s_stars[i]))
        s0 = params.s_star * float(ratios[i])
        cfg = SimConfig(n_paths=spec.n_names, dt=1 / 252, horizon=spec.days / 252,
                        seed=int(sim_seeds[0]), x0=math.log(s0))
        expected = np.exp(simulate(params, cfg).paths[i, : spec.days])
        rows = _read_rows(tmp_path / "prices" / f"N{i:03d}.csv")
        assert np.array_equal([float(p) for _, p in rows], expected)


def test_synth_universe_spreads_recomputable_from_truth(tmp_path):
    from tanhdrift.cds import SpreadModelConfig, synth_spread

    smc = SpreadModelConfig(recovery_rate=0.4, maturity=5.0)
    for noise in (0.0, 0.1):
        out = tmp_path / f"u{noise}"
        assert _run("synth-universe", "--n-names", 6, "--days", 30, "--seed", 5,
                    "--noise-sigma", noise, "--out-dir", out) == EXIT_OK
        spec = UniverseSpec(n_names=6, days=30, seed=5, noise_sigma=noise)
        noise_seeds = _universe_draws(spec)[5]
        dates = [r[0] for r in _read_rows(out / "prices" / "N000.csv")]
        truth = {r[0]: r for r in _read_rows(out / "truth.csv")}
        assert len(truth) == 6
        for i, (name, _pf, sf) in enumerate(load_manifest(out / "manifest.csv")):
            params = td.ModelParams.from_threshold_price(*(float(v) for v in truth[name][1:4]))
            mult = np.ones(spec.days)
            if noise > 0:
                xi = np.random.default_rng(int(noise_seeds[i])).standard_normal(spec.days)
                mult = np.exp(noise * xi)
            rows = _read_rows(sf)
            assert rows
            for d, price, spread in rows:
                expected = synth_spread(params, smc, float(price)) * mult[dates.index(d)]
                assert float(spread) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.dates(dt.date(1900, 1, 1), dt.date(2100, 12, 31)), st.integers(0, 600))
def test_trading_dates_match_weekday_walk(start, n):
    days = trading_dates(start, n)
    assert days.dtype == np.dtype("M8[D]")
    assert days.tolist() == trading_dates_reference(start, n)


def test_synth_universe_rejects_dates_past_year_9999(tmp_path, capsys):
    # ISO dates past 9999-12-31 have five-digit years, which no loader reads
    code = _run("synth-universe", "--n-names", 3, "--days", 60, "--seed", 1,
                "--start-date", "9999-12-01", "--out-dir", tmp_path / "u")
    assert code == EXIT_VALIDATION
    assert "60 days from 9999-12-01 end after year 9999" in capsys.readouterr().err
    assert not (tmp_path / "u").exists()
    assert trading_dates(dt.date(9999, 12, 1), 22)[-1] == np.datetime64("9999-12-30")
    assert _run("synth-universe", "--n-names", 3, "--days", 22, "--seed", 1,
                "--start-date", "9999-12-01", "--out-dir", tmp_path / "v") == EXIT_OK


def test_synth_universe_two_days(tmp_path):
    # SimConfig needs dt < horizon: two days still simulate and write two rows
    assert _run("synth-universe", "--n-names", 3, "--days", 2, "--seed", 4,
                "--out-dir", tmp_path) == EXIT_OK
    for name, pf, sf in load_manifest(tmp_path / "manifest.csv"):
        assert len(_read_rows(pf)) == 2
        assert 1 <= len(_read_rows(sf)) <= 2


def test_synth_universe_counts_distressed_days(tmp_path):
    # S0 close to S* so that paths cross it; days at or below exp(x_star)
    # are counted and left out of the spread files, every other day kept
    spec = UniverseSpec(n_names=12, days=120, seed=9, ratio_range=(1.01, 1.3),
                        sigma_range=(0.3, 0.4), nu_range=(0.3, 0.6))
    summary = generate_universe(spec, tmp_path)
    s_stars = _universe_draws(spec)[2]
    distressed = 0
    for i in range(spec.n_names):
        threshold = td.ModelParams.from_threshold_price(1.0, 0.3, float(s_stars[i])).s_star
        prices = _read_rows(tmp_path / "prices" / f"N{i:03d}.csv")
        healthy = [d for d, p in prices if float(p) > threshold]
        distressed += len(prices) - len(healthy)
        spread_dates = [r[0] for r in _read_rows(tmp_path / "spreads" / f"N{i:03d}.csv")]
        assert spread_dates == healthy
    assert distressed > 0
    assert summary["skipped_distressed_days"] == distressed


# ---------------------------------------------------------------------------
# extract


def test_extract_noiseless_recovers_truth_wide_ratio(tmp_path):
    # enormous price/threshold ratios make the linearization bias < 1e-6
    out = tmp_path / "u"
    assert _run("synth-universe", "--n-names", 6, "--days", 42, "--seed", 13,
                "--out-dir", out, "--ratio-range", "2e6,3e6",
                "--nu-range", "0.5,1.5", "--sigma-range", "0.15,0.25") == EXIT_OK
    sig = tmp_path / "signals.csv"
    assert _run("extract", "--manifest", out / "manifest.csv", "--window", 21,
                "--stride", 21, "--out", sig) == EXIT_OK
    truth = load_truth(out / "truth.csv")
    signals = load_signals_csv(sig)
    for name, rows in signals.by_name().items():
        assert signals.nu_hat[rows] == pytest.approx([truth[name]] * len(rows), abs=1e-6)


def test_noise_widens_stderr_and_truth_stays_in_ci(tmp_path):
    # lognormal observation noise should show up in the reported slope
    # standard errors, and the per-window estimates should still cover
    # the truth at the implied confidence level
    def stderrs(seed_dir, noise):
        out = tmp_path / seed_dir
        assert _run("synth-universe", "--n-names", 20, "--days", 63, "--seed", 99,
                    "--out-dir", out, "--noise-sigma", noise,
                    "--sigma-range", "0.25,0.35") == EXIT_OK
        truth = load_truth(out / "truth.csv")
        ses, errors = [], []
        for name, _pf, sf in load_manifest(out / "manifest.csv"):
            table = rolling_extract(load_spread_series(sf, name=name), 21, 21)
            ses.append(table.slope_stderr / 2.0)  # nu_hat = -slope/2
            errors.append(table.nu_hat - truth[name])
        return np.concatenate(ses), np.concatenate(errors)

    se_clean, _ = stderrs("clean", 0.0)
    se_noisy, err_noisy = stderrs("noisy", 0.1)
    assert float(np.median(se_noisy)) > 20.0 * float(np.median(se_clean))
    # reported standard errors match the empirical dispersion (OLS theory)
    ratio = float(np.std(err_noisy, ddof=1)) / float(np.mean(se_noisy))
    assert 0.7 < ratio < 1.4
    # ~99.7% coverage at 3 standard errors; allow a couple of outliers
    coverage = float(np.mean(np.abs(err_noisy) <= 3.0 * se_noisy))
    assert coverage > 0.95


@pytest.mark.parametrize("flag", ["--window", "--stride"])
def test_extract_window_and_stride_below_one_name_the_flag(tmp_path, capsys, flag):
    # checked before any file is read: the manifest does not exist
    code = _run("extract", "--manifest", tmp_path / "absent.csv", "--out", tmp_path / "s.csv",
                flag, 0)
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert err == f"validation error: {flag} must be >= 1, got 0\n"


def test_extract_empty_manifest_is_empty_result(tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("name,price_file,spread_file\n")
    code = _run("extract", "--manifest", manifest, "--out", tmp_path / "s.csv")
    assert code == EXIT_DATA


def test_extract_isolates_corrupt_names(tmp_path, capsys):
    out = tmp_path / "u"
    assert _run("synth-universe", "--n-names", 4, "--days", 42, "--seed", 3,
                "--out-dir", out) == EXIT_OK
    (out / "spreads" / "N002.csv").write_text("date,price,spread_bps\n2020-01-01,oops,1\n")
    # one infinite spread fails its name too, instead of a row of NaN
    n000 = out / "spreads" / "N000.csv"
    lines = n000.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",inf"
    n000.write_text("\n".join(lines) + "\n")
    sig = tmp_path / "signals.csv"
    code = _run("extract", "--manifest", out / "manifest.csv", "--out", sig)
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "N002" in captured.err
    assert "N000: spread must be finite > 0, got inf" in captured.err
    names = set(load_signals_csv(sig).name)
    assert names == {"N001", "N003"}


def _edit_manifest(out, edit):
    manifest = out / "manifest.csv"
    lines = manifest.read_text().splitlines()
    edit(lines)
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def test_extract_rejects_a_name_with_a_comma(tmp_path, capsys):
    # signals.csv writes names unquoted, so backtest could not read this
    # one back; extract must refuse it at its manifest line
    out = tmp_path / "u"
    assert _run("synth-universe", "--n-names", 3, "--days", 42, "--seed", 3,
                "--out-dir", out) == EXIT_OK

    def rename(lines):
        lines[2] = '"N,000"' + lines[2][len("N001"):]

    manifest = _edit_manifest(out, rename)
    sig = tmp_path / "signals.csv"
    assert _run("extract", "--manifest", manifest, "--out", sig) == EXIT_DATA
    assert "manifest.csv:3: name 'N,000' holds a comma" in capsys.readouterr().err
    assert not sig.exists()


def test_extract_and_backtest_reject_a_repeated_name(tmp_path, capsys):
    # a name listed twice would write each of its windows twice and price
    # it from the last of its files
    out = tmp_path / "u"
    assert _run("synth-universe", "--n-names", 3, "--days", 42, "--seed", 3,
                "--out-dir", out) == EXIT_OK
    sig = tmp_path / "signals.csv"
    assert _run("extract", "--manifest", out / "manifest.csv", "--out", sig) == EXIT_OK
    manifest = _edit_manifest(out, lambda lines: lines.insert(3, lines[2]))
    assert _run("extract", "--manifest", manifest, "--out", tmp_path / "again.csv") == EXIT_DATA
    assert _run("backtest", "--manifest", manifest, "--signals", sig,
                "--out-dir", tmp_path / "bt") == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("manifest.csv:4: name 'N001' repeats an earlier row") == 2


# ---------------------------------------------------------------------------
# backtest


def _small_pipeline(tmp_path, n_names=12, seed=21, noise=0.0):
    out = tmp_path / "u"
    assert _run("synth-universe", "--n-names", n_names, "--days", 63, "--seed", seed,
                "--out-dir", out, "--noise-sigma", noise) == EXIT_OK
    sig = tmp_path / "signals.csv"
    assert _run("extract", "--manifest", out / "manifest.csv", "--out", sig) == EXIT_OK
    return out, sig


def test_backtest_report_and_weights(tmp_path):
    uni, sig = _small_pipeline(tmp_path)
    bt = tmp_path / "bt"
    code = _run("backtest", "--manifest", uni / "manifest.csv", "--signals", sig,
                "--out-dir", bt, "--truth", uni / "truth.csv")
    assert code == EXIT_OK
    report = json.loads((bt / "report.json").read_text())
    assert report["n_days"] == 62
    assert report["spearman_true_extracted"] > 0.9
    weight_files = sorted((bt / "weights").glob("*.csv"))
    assert weight_files
    for wf in weight_files:
        rows = [line.split(",") for line in wf.read_text().splitlines()[1:]]
        weights = [float(w) for _, w in rows]
        if weights:
            assert abs(sum(weights)) < 1e-12
            assert abs(sum(abs(w) for w in weights) - 1.0) < 1e-12


def test_backtest_rank_by_mu_tilde_flag(tmp_path):
    uni, sig = _small_pipeline(tmp_path, seed=33)
    code = _run("backtest", "--manifest", uni / "manifest.csv", "--signals", sig,
                "--out-dir", tmp_path / "bt", "--rank-by", "mu-tilde")
    assert code == EXIT_OK
    report = json.loads((tmp_path / "bt" / "report.json").read_text())
    assert report["n_rebalances"] > 0
    code2 = _run("backtest", "--manifest", uni / "manifest.csv", "--signals", sig,
                 "--out-dir", tmp_path / "bt2", "--rank-by", "volatility")
    assert code2 == EXIT_VALIDATION


def test_backtest_non_finite_signal_is_a_data_error(tmp_path, capsys):
    uni, sig = _small_pipeline(tmp_path)
    lines = sig.read_text().splitlines()
    fields = lines[2].split(",")
    fields[3] = "nan"
    lines[2] = ",".join(fields)
    sig.write_text("\n".join(lines) + "\n")
    code = _run("backtest", "--manifest", uni / "manifest.csv", "--signals", sig,
                "--out-dir", tmp_path / "bt")
    assert code == EXIT_DATA
    assert "signals.csv:3: nu_hat, a_tilde must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "-3.0"])
def test_backtest_bad_price_is_a_data_error_at_its_line(tmp_path, capsys, value):
    uni, sig = _small_pipeline(tmp_path)
    prices = uni / "prices" / "N001.csv"
    lines = prices.read_text().splitlines()
    lines[5] = lines[5].split(",")[0] + "," + value
    prices.write_text("\n".join(lines) + "\n")
    code = _run("backtest", "--manifest", uni / "manifest.csv", "--signals", sig,
                "--out-dir", tmp_path / "bt")
    assert code == EXIT_DATA
    assert f"N001.csv:6: price must be finite and > 0, got {value}" in capsys.readouterr().err


def test_backtest_nine_names_exit_code(tmp_path):
    uni, sig = _small_pipeline(tmp_path, n_names=9, seed=8)
    code = _run("backtest", "--manifest", uni / "manifest.csv", "--signals", sig,
                "--out-dir", tmp_path / "bt")
    assert code == EXIT_DATA


def _strict_json(path: Path):
    def reject(constant):
        raise ValueError(f"{path.name} holds {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_backtest_one_day_windows(tmp_path, capsys):
    # One-observation windows have no slope, so extract finds no record;
    # two-observation windows fit, but against a truth of equal nu the
    # Spearman check is undefined, and no window holds the 3 price days
    # realized variance needs
    uni = tmp_path / "u"
    assert _run("synth-universe", "--n-names", 12, "--days", 42, "--seed", 21,
                "--out-dir", uni) == EXIT_OK
    sig = tmp_path / "signals.csv"
    assert _run("extract", "--manifest", uni / "manifest.csv", "--window", 1,
                "--min-window", 1, "--out", sig) == EXIT_DATA
    assert "no name produced any signal record" in capsys.readouterr().err
    assert not sig.exists()
    assert _run("extract", "--manifest", uni / "manifest.csv", "--window", 2,
                "--min-window", 2, "--out", sig) == EXIT_OK
    truth = tmp_path / "truth.csv"
    names = [row.split(",")[0] for row in (uni / "truth.csv").read_text().splitlines()[1:]]
    truth.write_text("name,nu,sigma,s_star,s0\n"
                     + "".join(f"{n},1.0,0.2,100.0,150.0\n" for n in names))
    bt = tmp_path / "bt"
    assert _run("backtest", "--manifest", uni / "manifest.csv", "--signals", sig,
                "--out-dir", bt, "--truth", truth) == EXIT_OK
    report = _strict_json(bt / "report.json")
    assert report["spearman_true_extracted"] is None
    assert "constant" in report["spearman_undefined_reason"]
    _strict_json(bt / "backtest_config.json")
    assert "spearman_true_extracted=undefined" in capsys.readouterr().out
    code = _run("backtest", "--manifest", uni / "manifest.csv", "--signals", sig,
                "--out-dir", tmp_path / "bt_mu", "--every", 1, "--rank-by", "mu-tilde")
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "3 price days" in err and "never align" not in err


def test_non_finite_option_is_a_validation_error(tmp_path, capsys):
    base = ["density", "--nu", 1, "--sigma", 0.2, "--x0", 0, "--t", 1, "--out-dir", tmp_path / "d"]
    assert _run(*base, "--tol-norm", "inf") == EXIT_VALIDATION
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"command": "density", "options": {"tol_fp": NaN}}')
    assert _run(*base, "--config", cfg) == EXIT_VALIDATION
    assert _run("synth-universe", "--n-names", 3, "--seed", 1, "--out-dir", tmp_path / "u",
                "--nu-range", "0.5,inf") == EXIT_VALIDATION
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_backtest_spread_rescaling_leaves_weights_identical(tmp_path):
    uni, sig = _small_pipeline(tmp_path, seed=5)
    # multiply every spread by 7 and re-extract
    for spread_file in (uni / "spreads").glob("*.csv"):
        lines = spread_file.read_text().splitlines()
        scaled = [lines[0]]
        for line in lines[1:]:
            d, p, z = line.split(",")
            scaled.append(f"{d},{p},{float(z) * 7.0!r}")
        spread_file.write_text("\n".join(scaled) + "\n")
    sig7 = tmp_path / "signals7.csv"
    assert _run("extract", "--manifest", uni / "manifest.csv", "--out", sig7) == EXIT_OK
    a, b = tmp_path / "bt_a", tmp_path / "bt_b"
    assert _run("backtest", "--manifest", uni / "manifest.csv", "--signals", sig,
                "--out-dir", a) == EXIT_OK
    assert _run("backtest", "--manifest", uni / "manifest.csv", "--signals", sig7,
                "--out-dir", b) == EXIT_OK
    wa, wb = sorted((a / "weights").glob("*.csv")), sorted((b / "weights").glob("*.csv"))
    assert [p.name for p in wa] == [p.name for p in wb]
    for fa, fb in zip(wa, wb):
        assert fa.read_bytes() == fb.read_bytes()


# ---------------------------------------------------------------------------
# config files


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    uni, sig = root / "u", root / "s" / "signals.csv"
    assert _run("synth-universe", "--n-names", 12, "--days", 63, "--seed", 33,
                "--out-dir", uni) == EXIT_OK
    assert _run("extract", "--manifest", uni / "manifest.csv", "--out", sig) == EXIT_OK
    return uni, sig


def _reproducible_runs(uni, sig):
    """Per command: its arguments, with flags, lists and dates among them."""
    return {
        "density": ["--nu", 1, "--sigma", 0.3, "--x0", 0.2, "--t", 0.5, "--n-points", 21,
                    "--compare-fp", "--compare-mc", "--mc-paths", 2000, "--tol-mc", 1.0],
        "default-prob": ["--nu", 1, "--sigma", 0.2, "--s-star", 100, "--s0", 150,
                         "--horizons", "1,5"],
        "simulate": ["--nu", 1, "--sigma", 0.3, "--x0", 0.2, "--n-paths", 20, "--dt", 0.05,
                     "--horizon", 0.5, "--seed", 3],
        "fp-check": ["--nu", 1, "--sigma", 0.2, "--x-star", 0, "--x0", 0.5, "--horizon", 0.5,
                     "--dx", 0.01, "--dt", 1e-3, "--refine", "--tol", 1.0],
        "synth-universe": ["--n-names", 5, "--days", 42, "--seed", 77, "--nu-range", "0.5,1.5",
                           "--start-date", "2021-03-01", "--noise-sigma", 0.05],
        "extract": ["--manifest", uni / "manifest.csv", "--window", 15, "--stride", 7],
        "backtest": ["--manifest", uni / "manifest.csv", "--signals", sig, "--every", 5,
                     "--start", "2020-01-03", "--rank-by", "mu-tilde",
                     "--truth", uni / "truth.csv"],
    }


@pytest.mark.parametrize("command", list(COMMANDS))
def test_resolved_config_reproduces_run(tmp_path, pipeline, command):
    # rerun purely from the emitted config, into a fresh directory: same
    # outputs, and the same resolved config save for the output path
    args = _reproducible_runs(*pipeline)[command]
    out_key = "out" if command == "extract" else "out_dir"
    target = {"out": "signals.csv", "out_dir": "run"}[out_key]
    a, b = tmp_path / "a", tmp_path / "b"
    config_name = command.replace("-", "_") + "_config.json"
    assert _run(command, *args, "--" + out_key.replace("_", "-"), a / target) == EXIT_OK
    config_dir = a if out_key == "out" else a / target
    code = _run(command, "--config", config_dir / config_name,
                "--" + out_key.replace("_", "-"), b / target)
    assert code == EXIT_OK
    assert _tree_bytes(a, skip=(config_name,)) == _tree_bytes(b, skip=(config_name,))
    cfg_a = json.loads((config_dir / config_name).read_text())
    cfg_b = json.loads(((b if out_key == "out" else b / target) / config_name).read_text())
    assert cfg_b["options"] == {**cfg_a["options"], out_key: str(b / target)}


def _exit_code(*args) -> int:
    """main's exit code, also when argparse exits (a usage error)."""
    try:
        return _run(*args)
    except SystemExit as exc:
        return exc.code


_MALFORMED = [
    ("synth-universe", {"n_names": "abc"}),
    ("synth-universe", {"n_names": 3.7}),
    ("synth-universe", {"n_names": [3]}),
    ("synth-universe", {"nu_range": ["a", "b"]}),
    ("synth-universe", {"nu_range": [1, 2, 3]}),
    ("synth-universe", {"start_date": 20200101}),
    ("density", {"n_points": None}),
    ("density", {"compare_fp": "no"}),
]


@pytest.mark.parametrize("command, bad", _MALFORMED, ids=[json.dumps(b) for _, b in _MALFORMED])
def test_malformed_config_value_exits_2(tmp_path, capsys, command, bad):
    # each value is parsed as the flag it stands for: a value the flag does
    # not take is a usage error that names the flag, never a traceback
    out = tmp_path / "out"
    good = {
        "synth-universe": {"n_names": 3, "seed": 1, "out_dir": str(out)},
        "density": {"nu": 1.0, "sigma": 0.2, "x0": 0.0, "t": 1.0, "out_dir": str(out)},
    }[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": command, "options": {**good, **bad}}))
    assert _exit_code(command, "--config", cfg) == EXIT_VALIDATION
    (key,) = bad
    assert "--" + key.replace("_", "-") in capsys.readouterr().err
    assert not out.exists()


def test_config_null_flag_and_optional_value_mean_the_default(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "density", "options": {
        "nu": 1.0, "sigma": 0.2, "x0": 0.0, "t": 1.0, "n_points": 5,
        "compare_fp": None, "compare_mc": False, "x_min": None, "out_dir": None,
    }}))
    assert _run("density", "--config", cfg) == EXIT_OK
    out = capsys.readouterr().out
    assert "closed_form" in out and "fokker_planck" not in out and "monte_carlo" not in out


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "density", "options": {"nu": 1.0, "sigmaa": 0.2}}))
    assert _run("density", "--config", cfg) == EXIT_VALIDATION


def test_config_wrong_command_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "simulate", "options": {}}))
    assert _run("density", "--config", cfg) == EXIT_VALIDATION


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "default-prob",
        "options": {"nu": 1.0, "sigma": 0.2, "s_star": 100.0, "s0": 150.0, "horizons": [400.0]},
    }))
    assert _run("default-prob", "--config", cfg, "--s0", 100) == EXIT_OK
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines() if line and not line.startswith("#")]
    assert float(rows[1][1]) == pytest.approx(0.5, abs=1e-12)


def test_missing_required_option(tmp_path):
    assert _run("density", "--nu", 1) == EXIT_VALIDATION


def test_config_overrides_defaults(tmp_path, capsys):
    # horizons default to 25,100,400; the config's one horizon replaces them
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "default-prob",
        "options": {"nu": 1.0, "sigma": 0.2, "s_star": 100.0, "s0": 150.0, "horizons": [7.5]},
    }))
    assert _run("default-prob", "--config", cfg, "--out-dir", tmp_path / "out") == EXIT_OK
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if line and not line.startswith("#")]
    assert [r[0] for r in rows[1:]] == ["7.5", "asymptotic"]
    resolved = json.loads((tmp_path / "out" / "default_prob_config.json").read_text())
    assert resolved["options"]["horizons"] == [7.5] and resolved["options"]["x_star"] == 0.0


# ---------------------------------------------------------------------------
# the parser


def test_help_lists_every_command_and_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        _run("--help")
    assert exc.value.code == 0
    top = capsys.readouterr().out
    assert "{" + ",".join(COMMANDS) + "}" in top
    for command in COMMANDS:
        assert f"{command} command" in top
    for command, opts in COMMANDS.items():
        with pytest.raises(SystemExit) as exc:
            _run(command, "--help")
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith(f"usage: tanhdrift {command} ") and "--config" in text
        for o in opts:
            assert "--" + o.name.replace("_", "-") in text, (command, o.name)


def test_unknown_command_exits_2(capsys):
    assert _exit_code("no-such-command", "--nu", 1) == EXIT_VALIDATION
    assert "invalid choice: 'no-such-command'" in capsys.readouterr().err
    assert _exit_code() == EXIT_VALIDATION


def test_usage_errors_and_help_keep_the_subcommand_layout(capsys):
    # a command's own parser reports leftovers as the top-level parser does,
    # and its help and errors carry the prog of a subparser
    pad = "\n" + " " * 17
    top = "usage: tanhdrift [-h]" + pad + "{" + ",".join(COMMANDS) + "}" + pad + "...\n"
    for argv, tail in ((["extract", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
                       (["bogus"], "argument command: invalid choice: 'bogus'"),
                       ([], "the following arguments are required: command")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(top + "tanhdrift: error: " + tail)
    with pytest.raises(SystemExit) as exc:
        main(["extract", "--window", "x"])
    err = capsys.readouterr().err
    assert err.startswith("usage: tanhdrift extract [-h] [--config CONFIG]")
    assert err.endswith("tanhdrift extract: error: argument --window: invalid int value: 'x'\n")
    for command in COMMANDS:
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: tanhdrift {command} [-h]")
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert all(f"    {command}" in out for command in COMMANDS)


def test_only_the_named_command_gets_its_options():
    # another command's options are not built, and so not parsed
    parser = _command_parser("default-prob")
    args = parser.parse_args(["--nu", "1", "--sigma", "0.2", "--s0", "5"])
    assert (args.command, args.nu, args.horizons) == ("default-prob", 1.0, [25.0, 100.0, 400.0])
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["--nu", "1", "--n-paths", "5"])
    assert exc.value.code == EXIT_VALIDATION
