"""Output checks computed apart from the program.

Each check reads the files one round wrote, recomputes what they should
hold from the model's formulas and the workload's inputs with its own
code (the csv module, numpy and math; nothing from tanhdrift), and
returns a list of failures, empty when the outputs are right. No check
compares against a stored copy of an earlier output.

The model facts the checks rely on: the transition density is the
equal-variance two-Gaussian mixture

    w_up N(x0 + m t, s^2 t) + w_dn N(x0 - m t, s^2 t),
    m = nu s^2,  w_up = expit(2 nu (x0 - x*)),  w_dn = expit(-2 nu (x0 - x*)),

its large-horizon default probability is expit(-2 nu (ln S0 - ln S*)),
and a healthy-day spread is b expit(-2 nu (ln S - ln S*)) times the
lognormal observation noise, with b = 1e4 (1 - R) / T.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from pathlib import Path

import numpy as np

RECOVERY, MATURITY = 0.4, 5.0  # the CLI defaults the workloads keep
MIN_WINDOW = 15  # the CLI's default minimum observations per fit
DENSITY_POINTS = 101  # the density command's default table size
TOL_FP_PEAK, TOL_MC_PEAK = 0.02, 0.10  # the density command's default tolerances
TOL_FP_CHECK = 1e-2
OLS_TOL = 1e-9  # signal fits against the normal equations, scaled by max(1, |value|)
RETURN_TOL = 1e-12
SIGMAS = 6.0  # statistical checks allow this many standard errors


def _rows(path, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != header:
            raise ValueError(f"{path}: header {got}, expected {header}")
        return [row for row in reader if row]


def _expit(z):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=float)))


def _phi(z):
    return np.exp(-0.5 * np.asarray(z) ** 2) / math.sqrt(2.0 * math.pi)


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _mixture(nu, sigma, x_star, x0, t):
    """(w_up, w_dn, m t, s) of the two-Gaussian mixture."""
    lam = 2.0 * nu * (x0 - x_star)
    return float(_expit(lam)), float(_expit(-lam)), nu * sigma * sigma * t, sigma * math.sqrt(t)


def mixture_pdf(nu, sigma, x_star, x, x0, t):
    w_up, w_dn, mt, s = _mixture(nu, sigma, x_star, x0, t)
    x = np.asarray(x, dtype=float)
    return (w_up * _phi((x - x0 - mt) / s) + w_dn * _phi((x - x0 + mt) / s)) / s


# ---------------------------------------------------------------------------
# universe, signals, backtest


class Universe:
    """The files synth-universe wrote, read back with the csv module."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.manifest = _rows(root / "manifest.csv", ["name", "price_file", "spread_file"])
        self.names = [r[0] for r in self.manifest]
        self.truth = {
            r[0]: dict(zip(("nu", "sigma", "s_star", "s0"), map(float, r[1:5])))
            for r in _rows(root / "truth.csv", ["name", "nu", "sigma", "s_star", "s0"])
        }
        self.prices: dict[str, tuple[list[str], np.ndarray]] = {}
        self.spreads: dict[str, tuple[list[str], np.ndarray, np.ndarray]] = {}
        for name, price_file, spread_file in self.manifest:
            rows = _rows(root / price_file, ["date", "price"])
            self.prices[name] = ([r[0] for r in rows], np.array([float(r[1]) for r in rows]))
            rows = _rows(root / spread_file, ["date", "price", "spread_bps"])
            self.spreads[name] = (
                [r[0] for r in rows],
                np.array([float(r[1]) for r in rows]),
                np.array([float(r[2]) for r in rows]),
            )


def _weekdays(start: dt.date, n: int) -> list[str]:
    out, d = [], start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d.isoformat())
        d += dt.timedelta(days=1)
    return out


def check_spreads(s: dict, out: Path, uni: Universe) -> list[str]:
    """Spread rows sit on the healthy days of their price file, and their
    log ratio to the model spread is the observation noise: mean 0 per
    name, standard deviation noise_sigma over the universe."""
    u = s["universe"]
    fails = []
    if uni.names != [f"N{i:03d}" for i in range(u["n_names"])]:
        fails.append(f"manifest lists {len(uni.names)} names, expected all {u['n_names']}")
    if set(uni.truth) != set(uni.names):
        fails.append("truth.csv and manifest.csv name different sets")
    calendar = _weekdays(dt.date(2020, 1, 1), u["days"])
    b = 1e4 * (1.0 - RECOVERY) / MATURITY
    noise = u["noise_sigma"]
    resid_all = []
    for name in uni.names:
        dates, prices = uni.prices[name]
        if dates != calendar:
            fails.append(f"{name}: price dates are not the {u['days']} weekdays from 2020-01-01")
            continue
        truth = uni.truth[name]
        if not math.isclose(prices[0], truth["s0"], rel_tol=1e-12):
            fails.append(f"{name}: first price {prices[0]!r} is not S0 {truth['s0']!r}")
        by_date = dict(zip(dates, prices))
        s_dates, s_prices, spreads = uni.spreads[name]
        s_star = truth["s_star"]
        bad = [d for d, p in zip(s_dates, s_prices) if by_date.get(d) != p]
        if bad:
            fails.append(f"{name}: {len(bad)} spread rows whose price is not the price file's, "
                         f"first {bad[0]}")
        if np.any(s_prices <= s_star * (1.0 - 1e-12)):
            fails.append(f"{name}: spread rows on distressed days (price <= S* = {s_star!r})")
        healthy = {d for d, p in zip(dates, prices) if p > s_star * (1.0 + 1e-12)}
        missing = healthy - set(s_dates)
        if missing:
            fails.append(f"{name}: {len(missing)} healthy days without a spread row")
        if list(s_dates) != sorted(s_dates) or len(set(s_dates)) != len(s_dates):
            fails.append(f"{name}: spread dates not strictly increasing")
        if not np.all(spreads > 0):
            fails.append(f"{name}: non-positive spreads")
            continue
        lam = 2.0 * truth["nu"] * (np.log(s_prices) - math.log(s_star))
        resid = np.log(spreads) - math.log(b) + np.logaddexp(0.0, lam)
        resid_all.append(resid)
        limit = SIGMAS * noise / math.sqrt(resid.size) if noise > 0 else 1e-9
        if abs(float(np.mean(resid))) > limit:
            fails.append(f"{name}: mean log spread residual {float(np.mean(resid)):.3e} "
                         f"beyond {limit:.3e}")
    if resid_all:
        r = np.concatenate(resid_all)
        std = float(np.std(r, ddof=1)) if r.size > 1 else 0.0
        limit = SIGMAS * noise / math.sqrt(2.0 * r.size) if noise > 0 else 1e-9
        if abs(std - noise) > limit:
            fails.append(f"log spread residual std {std:.6f} vs noise sigma {noise} "
                         f"(allowed {limit:.2e})")
    return fails


def _ols(x: np.ndarray, y: np.ndarray):
    """Slope, intercept and r^2 per row, from the centred normal equations."""
    xm = x.mean(axis=1, keepdims=True)
    ym = y.mean(axis=1, keepdims=True)
    dx, dy = x - xm, y - ym
    sxx = (dx * dx).sum(axis=1)
    sxy = (dx * dy).sum(axis=1)
    syy = (dy * dy).sum(axis=1)
    slope = sxy / sxx
    intercept = ym[:, 0] - slope * xm[:, 0]
    with np.errstate(invalid="ignore", divide="ignore"):
        r2 = np.where(syy > 0, sxy * sxy / (sxx * syy), 1.0)
    return slope, intercept, np.minimum(r2, 1.0)


SIGNAL_HEADER = ["name", "window_start", "window_end", "nu_hat", "a_tilde", "r_squared", "n_obs"]


def read_signals(path) -> dict[str, list[list[str]]]:
    """Signal rows grouped by name, in file order."""
    out: dict[str, list[list[str]]] = {}
    for row in _rows(path, SIGNAL_HEADER):
        out.setdefault(row[0], []).append(row)
    return out


def _record_mismatch(row: list[str], expected: tuple, w: int) -> str | None:
    ws, we, nu_hat, a_tilde, rsq = expected
    if (row[1], row[2], row[6]) != (ws, we, str(w)):
        return f"record {row[1]}..{row[2]} n={row[6]}, expected {ws}..{we} n={w}"
    for got, want, label in ((row[3], nu_hat, "nu_hat"), (row[4], a_tilde, "a_tilde"),
                             (row[5], rsq, "r_squared")):
        if not abs(float(got) - want) <= OLS_TOL * max(1.0, abs(want)):
            return f"{we}: {label} {got} vs OLS {want!r}"
    return None


def check_signals(s: dict, out: Path, uni: Universe) -> list[str]:
    """Every window of every name is present, in (name, window_end) order,
    with the dates and n_obs that window/stride give, and its nu_hat,
    a_tilde and r^2 match an OLS of log spread on log price computed
    here."""
    w, stride = s["extract"]["window"], s["extract"]["stride"]
    path = out / "signals" / "signals.csv"
    keys = [(row[0], row[2]) for row in _rows(path, SIGNAL_HEADER)]
    signals = read_signals(path)
    fails = []
    if keys != sorted(keys):
        fails.append("signal records are not sorted by (name, window_end)")
    extra = sorted(set(signals) - set(uni.names))
    if extra:
        fails.append(f"signals for names not in the manifest: {extra[:3]}")
    for name in uni.names:
        dates, prices, spreads = uni.spreads[name]
        starts = list(range(0, len(dates) - w + 1, stride)) if w >= MIN_WINDOW else []
        rows = signals.get(name, [])
        if not starts:
            if rows:
                fails.append(f"{name}: {len(rows)} records but no full window")
            continue
        x = np.lib.stride_tricks.sliding_window_view(np.log(prices), w)[starts]
        y = np.lib.stride_tricks.sliding_window_view(np.log(spreads), w)[starts]
        keep = np.std(x, axis=1, ddof=1) >= 1e-10  # degenerate windows are skipped
        slope, intercept, r2 = _ols(x, y)
        flat = np.ptp(y, axis=1) == 0.0
        slope[flat], intercept[flat], r2[flat] = 0.0, y[flat, 0], 1.0
        expected = [
            (dates[i], dates[i + w - 1], float(-slope[j] / 2.0), float(intercept[j]), float(r2[j]))
            for j, i in enumerate(starts) if keep[j]
        ]
        if len(rows) != len(expected):
            fails.append(f"{name}: {len(rows)} records, expected {len(expected)} windows")
            continue
        for row, want in zip(rows, expected):
            problem = _record_mismatch(row, want, w)
            if problem:
                fails.append(f"{name}: {problem}")
                break
    return fails


def _spearman(a, b) -> float:
    ra = np.argsort(np.argsort(a)).astype(float)
    rb = np.argsort(np.argsort(b)).astype(float)
    return float(np.corrcoef(ra, rb)[0, 1])


def check_backtest(s: dict, out: Path, uni: Universe) -> list[str]:
    """Rebalance dates follow the schedule; each held book is dollar-neutral
    with unit gross and longs/shorts the top/bottom decile of an as-of
    join of the signals (window_end <= date); the daily returns follow
    from the weights and prices; Spearman(true nu, median nu_hat) > 0.9."""
    every, rank_by = s["backtest"]["every"], s["backtest"]["rank_by"]
    bt = out / "bt"
    report = json.loads((bt / "report.json").read_text())
    signals = read_signals(out / "signals" / "signals.csv")
    fails = []
    days = uni.prices[uni.names[0]][0]
    if any(uni.prices[n][0] != days for n in uni.names):
        return ["names do not share one price calendar"]
    day_index = {d: i for i, d in enumerate(days)}
    prices = np.vstack([uni.prices[n][1] for n in uni.names])  # names x days
    log_p = np.log(prices)

    rebal_dates = days[::every]
    files = sorted(p.stem for p in (bt / "weights").glob("*.csv"))
    if files != rebal_dates:
        return [f"{len(files)} weight files, expected {len(rebal_dates)} on every {every}th day"]
    if report.get("dropped"):
        fails.append(f"report drops {len(report['dropped'])} holdings, but every name is priced")

    # Per name: window_end day indices (sorted) and the ranking score of each record.
    table = {}
    for name, rows in signals.items():
        ends = np.array([day_index[r[2]] for r in rows])
        starts = np.array([day_index[r[1]] for r in rows])
        nu_hat = np.array([float(r[3]) for r in rows])
        if rank_by == "mu-tilde":
            i = uni.names.index(name)
            score = np.full(len(rows), np.nan)
            for j, (a, z) in enumerate(zip(starts, ends)):
                if z - a + 1 >= 3:  # realized variance needs three prices
                    var = float(np.var(np.diff(log_p[i, a:z + 1]), ddof=1)) * 252.0
                    score[j] = nu_hat[j] * var
        else:
            score = nu_hat
        order = np.argsort(ends, kind="stable")
        table[name] = (ends[order], score[order])

    books = []  # (day index, {name: weight})
    held = 0
    for date in rebal_dates:
        rows = _rows(bt / "weights" / f"{date}.csv", ["name", "weight"])
        weights = {r[0]: float(r[1]) for r in rows}
        d = day_index[date]
        entries = []
        for name, (ends, score) in table.items():
            j = int(np.searchsorted(ends, d, side="right")) - 1
            if j >= 0 and not math.isnan(score[j]):
                entries.append((-score[j], name))
        entries.sort()
        if len(entries) < 10:
            if weights:
                fails.append(f"{date}: {len(entries)} eligible names but a book of {len(weights)}")
            books.append((d, {}))
            continue
        k = len(entries) // 10
        expect = {name: 0.0 for _, name in entries}
        for _, name in entries[:k]:
            expect[name] = 1.0 / (2.0 * k)
        for _, name in entries[-k:]:
            expect[name] = -1.0 / (2.0 * k)
        if [r[0] for r in rows] != sorted(expect):
            fails.append(f"{date}: weight file lists {len(rows)} names, "
                         f"expected the {len(expect)} eligible ones")
        elif weights != expect:
            wrong = [n for n in expect if weights[n] != expect[n]]
            fails.append(f"{date}: {len(wrong)} weights differ from the deciles, first {wrong[0]}")
        net = math.fsum(weights.values())
        gross = math.fsum(abs(v) for v in weights.values())
        if abs(net) > RETURN_TOL or abs(gross - 1.0) > RETURN_TOL:
            fails.append(f"{date}: net {net!r}, gross {gross!r}; expected 0 and 1")
        held += 1
        books.append((d, {n: v for n, v in weights.items() if v != 0.0}))
    if held == 0:
        fails.append("no rebalance holds a book")

    daily = report["daily_returns"]
    first = day_index[rebal_dates[0]]
    expected_days = days[first + 1:]
    if [r[0] for r in daily] != expected_days:
        fails.append(f"{len(daily)} daily returns, expected one per day after {rebal_dates[0]}")
    else:
        row = {n: i for i, n in enumerate(uni.names)}
        b, worst = 0, 0.0
        for date, got in daily:
            d = day_index[date]
            while b + 1 < len(books) and books[b + 1][0] < d:
                b += 1
            want = math.fsum(w * (prices[row[n], d] / prices[row[n], d - 1] - 1.0)
                             for n, w in books[b][1].items())
            worst = max(worst, abs(got - want))
        if worst > RETURN_TOL:
            fails.append(f"daily returns differ from the weights and prices by {worst:.2e}")

    common = [n for n in uni.names if n in signals]
    if len(common) >= 3:
        med = [float(np.median([float(r[3]) for r in signals[n]])) for n in common]
        rho = _spearman([uni.truth[n]["nu"] for n in common], med)
        if not rho > 0.9:
            fails.append(f"Spearman(true nu, median nu_hat) = {rho:.4f}, not above 0.9")
        got = report.get("spearman_true_extracted")
        if got is None or abs(got - rho) > 1e-9:
            fails.append(f"report's spearman_true_extracted {got} vs {rho!r} recomputed")
    else:
        fails.append(f"only {len(common)} names have signals")
    return fails


# ---------------------------------------------------------------------------
# oracle commands


def check_density(s: dict, out: Path) -> list[str]:
    """The closed-form column is the two-Gaussian mixture; the PDE and MC
    columns lie within the command's tolerances of it."""
    d = s["density"]
    rows = _rows(out / "density" / "density.csv",
                 ["x", "closed_form", "fokker_planck", "monte_carlo"])
    data = np.array([[float(v) for v in r] for r in rows])
    if data.shape != (DENSITY_POINTS, 4):
        return [f"density table has shape {data.shape}, expected ({DENSITY_POINTS}, 4)"]
    mix = mixture_pdf(d["nu"], d["sigma"], 0.0, data[:, 0], d["x0"], d["t"])
    fails = []
    rel = np.max(np.abs(data[:, 1] - mix) / mix)
    if not rel <= 1e-9:
        fails.append(f"closed_form differs from the mixture pdf by {rel:.2e} relative")
    peak = float(np.max(mix))
    for col, tol, label in ((2, TOL_FP_PEAK, "fokker_planck"), (3, TOL_MC_PEAK, "monte_carlo")):
        disc = float(np.max(np.abs(data[:, col] - mix))) / peak
        if not disc <= tol:
            fails.append(f"{label} column is {disc:.3e} of the peak from the mixture (> {tol})")
    return fails


def check_default_prob(s: dict, out: Path) -> list[str]:
    """Each horizon's probability is the mixture CDF below x*; the last row
    is the logistic limit 1 / (1 + (S0/S*)^(2 nu))."""
    p = s["default_prob"]
    rows = _rows(out / "default_prob" / "default_prob.csv",
                 ["horizon_years", "probability", "sigma_nu_sqrt_t", "valid"])
    fails = []
    if len(rows) != len(p["horizons"]) + 1:
        return [f"{len(rows)} rows, expected {len(p['horizons'])} horizons and the limit"]
    x0, x_star = math.log(p["s0"]), math.log(p["s_star"])
    worst = 0.0
    for row, horizon in zip(rows, p["horizons"]):
        t = float(row[0])
        if t != horizon:
            fails.append(f"horizon {row[0]} where {horizon!r} was asked")
            continue
        w_up, w_dn, mt, sd = _mixture(p["nu"], p["sigma"], x_star, x0, t)
        want = (w_up * _norm_cdf((x_star - x0 - mt) / sd)
                + w_dn * _norm_cdf((x_star - x0 + mt) / sd))
        err = abs(float(row[1]) - want) / want
        worst = max(worst, err)
        validity = p["sigma"] * p["nu"] * math.sqrt(t)
        if (not math.isclose(float(row[2]), validity, rel_tol=1e-12)
                or int(row[3]) != int(validity >= 3.0)):
            fails.append(f"horizon {t}: validity columns {row[2]},{row[3]}")
    if worst > 1e-6:
        fails.append(f"probabilities differ from the mixture CDF by {worst:.2e} relative (> 1e-6)")
    limit = 1.0 / (1.0 + (p["s0"] / p["s_star"]) ** (2.0 * p["nu"]))
    last = rows[-1]
    if last[0] != "inf" or not math.isclose(float(last[1]), limit, rel_tol=1e-12):
        fails.append(f"asymptotic row {last} vs logistic {limit!r}")
    return fails


def check_fp(s: dict, out: Path) -> list[str]:
    """The fp-check density is within 1e-2 relative of the mixture wherever
    the mixture exceeds 1e-6 of its peak."""
    f = s["fp_check"]
    rows = _rows(out / "fp" / "density.csv", ["x", "density"])
    data = np.array([[float(v) for v in r] for r in rows])
    mix = mixture_pdf(f["nu"], f["sigma"], 0.0, data[:, 0], f["x0"], f["horizon"])
    region = mix > 1e-6 * float(np.max(mix))
    err = float(np.max(np.abs(data[region, 1] - mix[region]) / mix[region]))
    mass = float(np.sum(data[:, 1]) * (data[1, 0] - data[0, 0]))
    fails = []
    if not err <= TOL_FP_CHECK:
        fails.append(f"PDE density is {err:.3e} relative from the mixture (> {TOL_FP_CHECK})")
    if abs(mass - 1.0) > 1e-3:
        fails.append(f"PDE density integrates to {mass!r}")
    return fails


def check_simulate(s: dict, out: Path) -> list[str]:
    """ensemble.csv holds every path at every step from x0, and the terminal
    mean and variance lie within a few standard errors of the mixture's."""
    m = s["simulate"]
    steps = round(m["horizon"] / m["dt"])
    path = out / "sim" / "ensemble.csv"
    with open(path) as fh:
        header = fh.readline().strip()
    if header != "path_id,step,x":
        return [f"{path}: header {header}"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = m["n_paths"]
    if data.shape != (n * (steps + 1), 3):
        return [f"ensemble has {data.shape[0]} rows, expected {n} x {steps + 1}"]
    grid = data.reshape(n, steps + 1, 3)
    fails = []
    if not (np.array_equal(grid[:, :, 0], np.repeat(np.arange(n)[:, None], steps + 1, axis=1))
            and np.array_equal(grid[:, :, 1], np.tile(np.arange(steps + 1), (n, 1)))):
        fails.append("rows are not (path_id, step) in order")
    if not np.all(grid[:, 0, 2] == m["x0"]):
        fails.append("not every path starts at x0")
    xt = grid[:, -1, 2]
    w_up, w_dn, mt, sd = _mixture(m["nu"], m["sigma"], 0.0, m["x0"], m["horizon"])
    mean = m["x0"] + mt * (w_up - w_dn)
    var = sd * sd + mt * mt * (1.0 - (w_up - w_dn) ** 2)
    c = xt - xt.mean()
    se_mean = math.sqrt(var / n)
    se_var = math.sqrt(max(float(np.mean(c ** 4)) - var * var, 0.0) / n)
    if abs(float(xt.mean()) - mean) > SIGMAS * se_mean:
        fails.append(f"terminal mean {float(xt.mean()):.5f} vs mixture {mean:.5f} "
                     f"(se {se_mean:.2e})")
    if abs(float(np.var(xt, ddof=1)) - var) > SIGMAS * se_var:
        fails.append(f"terminal variance {float(np.var(xt, ddof=1)):.5f} vs mixture {var:.5f} "
                     f"(se {se_var:.2e})")
    return fails


def run_all(s: dict, out: Path) -> dict[str, list[str]]:
    """Every check on one round's directory: check name -> failures."""
    results: dict[str, list[str]] = {}
    try:
        uni = Universe(out / "uni")
    except (OSError, ValueError) as exc:
        uni = None
        for name in ("spreads", "signals", "backtest"):
            results[name] = [f"cannot read the universe: {exc}"]
    checks = {
        "spreads": lambda: check_spreads(s, out, uni),
        "signals": lambda: check_signals(s, out, uni),
        "backtest": lambda: check_backtest(s, out, uni),
        "density": lambda: check_density(s, out),
        "default_prob": lambda: check_default_prob(s, out),
        "fp_check": lambda: check_fp(s, out),
        "simulate": lambda: check_simulate(s, out),
    }
    for name, check in checks.items():
        if name in results:
            continue
        try:
            results[name] = check()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            results[name] = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return results
