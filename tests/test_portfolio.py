"""Decile portfolio construction and backtest accounting."""

import datetime as dt
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

import tanhdrift as td
import oracles
from oracles import as_rows, backtest_reference
from tanhdrift.cds import Signals, SpreadModelConfig, SpreadSeries, rolling_extract, synth_spread
from tanhdrift.portfolio import (
    PortfolioSnapshot,
    RebalanceSchedule,
    backtest,
    rank_deciles,
    signal_quality,
)

D0 = dt.date(2022, 1, 3)


def _days(n):
    # weekdays only, matching the synthetic universe convention
    out, d = [], D0
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return out


def _signals(name, *rows):
    """A Signals table of one name's (window_end, nu_hat) or (window_end,
    nu_hat, window_start) rows; a window starts 30 days before its end
    unless given."""
    ends = [row[0] for row in rows]
    starts = [row[2] if len(row) > 2 else row[0] - dt.timedelta(days=30) for row in rows]
    n = len(rows)
    return Signals([name] * n, starts, ends, [row[1] for row in rows], np.zeros(n), np.ones(n),
                   np.full(n, 21), np.zeros(n))


def _flat_universe(n_names, n_days, price=100.0):
    days = _days(n_days)
    return {f"N{i:02d}": (days, [price] * n_days) for i in range(n_names)}


# ---------------------------------------------------------------------------
# rank_deciles


def _ranked(scores, names=None):
    """rank_deciles's weights on scores as a snapshot, by name; names
    default to N00, N01, ... in input order."""
    names = names or [f"N{i:02d}" for i in range(len(scores))]
    weights = rank_deciles(np.array(scores, dtype=float))
    return PortfolioSnapshot(date=D0, weights=dict(zip(names, weights.tolist())))


def test_rank_deciles_twenty_names():
    snap = _ranked([float(i) for i in range(1, 21)], [f"N{i:02d}" for i in range(1, 21)])
    assert snap.weights["N20"] == 0.25
    assert snap.weights["N19"] == 0.25
    assert snap.weights["N01"] == -0.25
    assert snap.weights["N02"] == -0.25
    assert all(snap.weights[f"N{i:02d}"] == 0.0 for i in range(3, 19))
    assert snap.net == 0.0
    assert abs(snap.gross - 1.0) < 1e-12


def test_rank_deciles_all_tied_is_deterministic():
    scores = [1.5] * 12
    snap = _ranked(scores)
    assert snap.weights == _ranked(scores).weights
    assert snap.weights["N00"] == 0.5  # ties keep input order, which is name order
    assert snap.weights["N11"] == -0.5
    assert snap.net == 0.0
    assert abs(snap.gross - 1.0) < 1e-12


def test_rank_deciles_too_small():
    with pytest.raises(td.UniverseTooSmall):
        rank_deciles(np.arange(9.0))


def test_rank_deciles_invariants_across_sizes():
    rng = np.random.default_rng(3)
    for n in (10, 23, 57, 100):
        snap = _ranked(rng.normal(size=n).tolist())
        k = n // 10
        assert sum(1 for w in snap.weights.values() if w > 0) == k
        assert sum(1 for w in snap.weights.values() if w < 0) == k
        assert snap.net == 0.0
        assert abs(snap.gross - 1.0) < 1e-12


# Scores with heavy ties, both zeros, and huge and tiny magnitudes.
_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -5e-324, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_SCORES, min_size=10, max_size=120))
def test_rank_deciles_matches_dict_reference(scores):
    # names in input order are in name order, as the backtest's columns are
    names = [f"N{i:03d}" for i in range(len(scores))]
    want = oracles.rank_deciles(
        oracles.UniverseSnapshot(date=D0, entries={n: (100.0, v) for n, v in zip(names, scores)})
    )
    got = rank_deciles(np.array(scores))
    assert list(want.weights) == names
    assert repr(got.tolist()) == repr(list(want.weights.values()))


# ---------------------------------------------------------------------------
# backtest accounting


def test_two_sided_arithmetic_single_rebalance():
    # 10 names, k=1: weights are +-0.5; long name gains 2%, short flat
    days = _days(3)
    prices = {f"N{i:02d}": (days, [100.0] * 3) for i in range(10)}
    prices["N09"] = (days, [100.0, 102.0, 102.0])
    signals = Signals.concat(_signals(f"N{i:02d}", (days[0], float(i))) for i in range(10))
    report = backtest(prices, signals, RebalanceSchedule(every=999))
    assert report.rebalances[0].weights["N09"] == 0.5
    assert report.rebalances[0].weights["N00"] == -0.5
    assert report.daily_returns[0] == (days[1], pytest.approx(0.01, abs=1e-15))
    assert report.daily_returns[1] == (days[2], 0.0)
    assert report.turnover_avg == pytest.approx(0.5)
    assert report.long_leg_mean_daily == pytest.approx(0.01)
    assert report.short_leg_mean_daily == pytest.approx(0.0)


def test_empty_signal_stream_runs_flat():
    prices = _flat_universe(10, 30)
    report = backtest(prices, Signals.concat([]), RebalanceSchedule(every=10))
    assert report.n_days == 29
    assert all(r == 0.0 for _, r in report.daily_returns)
    assert report.sharpe_annualized is None
    assert report.mean_return == 0.0


def test_nine_name_universe_rejected():
    prices = _flat_universe(9, 30)
    days = _days(30)
    signals = Signals.concat(_signals(n, (days[0], float(i))) for i, n in enumerate(prices))
    with pytest.raises(td.UniverseTooSmall):
        backtest(prices, signals, RebalanceSchedule(every=10))


def test_no_overlap_rejected():
    prices = _flat_universe(10, 10)
    late = _days(30)[-1]
    signals = Signals.concat(_signals(n, (late, 1.0)) for n in prices)
    with pytest.raises(td.NoOverlap):
        backtest(prices, signals, RebalanceSchedule(every=5))


def test_windows_without_variance_days_are_not_no_overlap():
    # signals align with prices, but each window spans one price day:
    # mu_tilde has no realized variance for any name, nu ranks them fine
    days = _days(10)
    prices = _flat_universe(10, 10)
    signals = Signals.concat(
        _signals(n, (days[2], float(i), days[2])) for i, n in enumerate(prices)
    )
    by_nu = backtest(prices, signals, RebalanceSchedule(every=1), rank_by="nu")
    assert by_nu.rebalances[2].weights
    with pytest.raises(td.TooFewPriceDays, match="3 price days"):
        backtest(prices, signals, RebalanceSchedule(every=1), rank_by="mu_tilde")


def test_non_finite_price_rejected():
    for bad in (math.inf, math.nan, 0.0, -1.0):
        prices = _flat_universe(10, 5)
        prices["N03"][1][2] = bad
        message = f"N03: price must be finite and > 0, got {bad} on "
        with pytest.raises(td.ValidationError, match=message):
            backtest(prices, Signals.concat([]), RebalanceSchedule(every=1))


def test_warmup_period_holds_nothing():
    # signals appear only mid-sample: earlier rebalances stay flat
    days = _days(63)
    rng = np.random.default_rng(8)
    prices = {
        f"N{i:02d}": (days, [100.0 * math.exp(0.01 * rng.standard_normal()) for _ in days])
        for i in range(12)
    }
    signals = Signals.concat(_signals(n, (days[30], float(i))) for i, n in enumerate(prices))
    report = backtest(prices, signals, RebalanceSchedule(every=21))
    assert report.rebalances[0].weights == {}
    assert report.rebalances[1].weights == {}  # day 21 < day 30
    assert any(w != 0 for w in report.rebalances[2].weights.values())
    flat_until = days[42]
    assert all(r == 0.0 for d, r in report.daily_returns if d <= flat_until)


def test_no_lookahead_weights_bit_identical():
    days = _days(45)
    rng = np.random.default_rng(15)
    prices = {
        f"N{i:02d}": (days, 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(45))))
        for i in range(15)
    }
    signals = Signals.concat(_signals(n, (days[0], float(i))) for i, n in enumerate(prices))
    base = backtest(prices, signals, RebalanceSchedule(every=21))
    # perturb a price strictly after the first rebalance
    perturbed = {n: (d, p.copy()) for n, (d, p) in prices.items()}
    perturbed["N07"][1][5] *= 3.0
    moved = backtest(perturbed, signals, RebalanceSchedule(every=21))
    assert moved.rebalances[0].weights == base.rebalances[0].weights
    assert moved.daily_returns[:4] == base.daily_returns[:4]


def test_held_name_without_price_is_dropped():
    days = _days(4)
    prices = {f"N{i:02d}": (days, [100.0] * 4) for i in range(10)}
    prices["N09"] = ([days[0]], [100.0])  # vanishes after the rebalance
    signals = Signals.concat(_signals(n, (days[0], float(i))) for i, n in enumerate(prices))
    report = backtest(prices, signals, RebalanceSchedule(every=999))
    assert (days[1], "N09") in report.dropped
    assert report.daily_returns[0] == (days[1], 0.0)


def test_determinism_of_report():
    days = _days(40)
    rng = np.random.default_rng(4)
    prices = {
        f"N{i:02d}": (days, 90.0 * np.exp(np.cumsum(0.008 * rng.standard_normal(40))))
        for i in range(11)
    }
    signals = Signals.concat(
        _signals(n, (days[10], float(i)), (days[30], float(10 - i)))
        for i, n in enumerate(prices)
    )
    a = backtest(prices, signals, RebalanceSchedule(every=10))
    b = backtest(prices, signals, RebalanceSchedule(every=10))
    assert a.daily_returns == b.daily_returns
    assert [s.weights for s in a.rebalances] == [s.weights for s in b.rebalances]
    assert a.to_dict() == b.to_dict()


def test_latest_signal_no_lookahead_selection():
    days = _days(50)
    prices = _flat_universe(10, 50)
    signals = Signals.concat(
        _signals(n, (days[5], float(i)), (days[40], float(10 - i)))
        for i, n in enumerate(prices)
    )
    report = backtest(prices, signals, RebalanceSchedule(every=35, start=days[5]))
    # first rebalance (day 5) uses the day-5 signals, ranks ascending
    # with i; the second (day 40) uses the day-40 signals, ranks flipped
    assert report.rebalances[0].weights["N00"] == -0.5
    assert report.rebalances[1].weights["N00"] == 0.5


def test_mu_tilde_ranking_uses_realized_vol():
    days = _days(40)
    # N00..N08 flat-vol names; N09 low nu but high realized vol
    prices = {}
    for i in range(9):
        zig = [100.0 * (1.0 + 0.001 * ((-1) ** k)) for k in range(40)]
        prices[f"N{i:02d}"] = (days, zig)
    prices["N09"] = (days, [100.0 * (1.0 + 0.2 * ((-1) ** k)) for k in range(40)])
    signals = Signals.concat(
        [_signals(n, (days[20], 1.0 + 0.01 * i, days[0])) for i, n in enumerate(prices)][:9]
        + [_signals("N09", (days[20], 0.5, days[0]))]
    )
    by_nu = backtest(prices, signals, RebalanceSchedule(every=999, start=days[20]), rank_by="nu")
    assert by_nu.rebalances[0].weights["N09"] == -0.5  # lowest nu_hat
    by_mu = backtest(prices, signals, RebalanceSchedule(every=999, start=days[20]), rank_by="mu_tilde")
    assert by_mu.rebalances[0].weights["N09"] == 0.5  # vol squared dominates
    with pytest.raises(td.ValidationError):
        backtest(prices, signals, rank_by="volatility")


def test_rescaling_spreads_leaves_weights_identical():
    # end to end: per-name spread series -> rolling extraction -> weights
    cfg = SpreadModelConfig()
    days = _days(42)
    rng = np.random.default_rng(77)
    prices: dict[str, tuple[list[dt.date], np.ndarray]] = {}
    base_signals: list[Signals] = []
    scaled_signals: list[Signals] = []
    for i in range(12):
        name = f"N{i:02d}"
        nu = 0.4 + 0.2 * i
        params = td.ModelParams.from_threshold_price(nu, 0.25, 20.0)
        walk = np.exp(np.cumsum(0.01 * rng.standard_normal(42)))
        level = 200.0 * walk
        prices[name] = (days, level)
        spreads = np.array([synth_spread(params, cfg, float(p)) for p in level])
        for scale, bucket in ((1.0, base_signals), (7.0, scaled_signals)):
            series = SpreadSeries(name, days, level, scale * spreads)
            bucket.append(rolling_extract(series, 21, 21))
    a = backtest(prices, Signals.concat(base_signals), RebalanceSchedule(every=21))
    b = backtest(prices, Signals.concat(scaled_signals), RebalanceSchedule(every=21))
    assert [s.weights for s in a.rebalances] == [s.weights for s in b.rebalances]
    assert a.daily_returns == b.daily_returns


# ---------------------------------------------------------------------------
# backtest against the record-scanning reference


@st.composite
def _panels(draw):
    """Prices and signals with holes, duplicate price dates, rows that
    share (window_end, window_start), tied nu_hat, names that never get
    3 price days, names without signals, signals without prices, and
    names whose rows interleave in the signals table."""
    n_days = draw(st.sampled_from([25, 12, 40, 3]))
    n_names = draw(st.sampled_from([16, 24, 11, 9]))
    p_hole = draw(st.sampled_from([0.0, 0.05, 0.2]))
    tied = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    days = _days(n_days)
    day_array = np.array(days, dtype="M8[D]")
    prices, signals = {}, []
    for i in range(n_names):
        name = f"N{i:02d}"
        keep = rng.random(n_days) >= p_hole
        if rng.random() < 0.1:  # never reaches 3 price days
            keep[:] = False
            keep[rng.choice(n_days, size=min(2, n_days), replace=False)] = True
        level = 100.0 * np.exp(np.cumsum(0.02 * rng.standard_normal(n_days)))
        d, p = day_array[keep], level[keep]
        for _ in range(int(rng.integers(0, 3))):  # duplicate price dates
            if d.size:
                j, at = int(rng.integers(d.size)), int(rng.integers(d.size + 1))
                d, p = np.insert(d, at, d[j]), np.insert(p, at, p[j] * 1.01)
        if rng.random() < 0.2:
            order = rng.permutation(d.size)
            d, p = d[order], p[order]
        prices[name] = (d, p)
        if rng.random() < 0.1:  # no signals
            continue
        rows = []
        for _ in range(int(rng.integers(1, 6))):
            end = days[0] + dt.timedelta(days=int(rng.integers(-3, 1.4 * n_days)))
            # mostly long windows; some with under 3 price days or start > end
            span = rng.integers(-1, 3) if rng.random() < 0.15 else rng.integers(4, 22)
            start = end - dt.timedelta(days=int(span))
            nu_hat = float(rng.integers(-2, 3)) if tied else float(rng.standard_normal())
            rows.append((end, nu_hat, start))
            if rng.random() < 0.3:  # same (window_end, window_start), another nu_hat
                rows.append((end, nu_hat + 1.0, start))
        signals.append(_signals(name, *rows))
    if rng.random() < 0.3:
        signals.append(_signals("X", (days[0], 1.0)))
    signals = Signals.concat(signals)
    if rng.random() < 0.5:  # names interleave; a name's duplicate keys may swap order
        signals = signals.take(rng.permutation(len(signals)))
    every = draw(st.integers(1, 7))
    cut = days[draw(st.integers(0, n_days - 1))]
    return prices, signals, RebalanceSchedule(every=every), cut


def _until(table, cut):
    """The rows of a Signals table with window_end <= cut."""
    return table.take(table.window_end <= np.datetime64(cut))


def _outcome(run, *args):
    try:
        return run(*args)
    except td.TanhDriftError as exc:
        return type(exc)


def _short_only_flat_day():
    """Ten flat names; the long leg's one name has no price after the
    rebalance, so the next day only the short leg is held, and it earns
    exactly 0.0 (a return of -0.0 if the sum started from its first term)."""
    days = np.array(_days(4), dtype="M8[D]")
    prices = {f"N{i:02d}": (days, np.full(4, 100.0)) for i in range(10)}
    prices["N09"] = (days[:1], np.array([100.0]))
    signals = Signals.concat(_signals(n, (_days(1)[0], float(i))) for i, n in enumerate(prices))
    return prices, signals, RebalanceSchedule(every=999), _days(4)[2]


def _report_text(report):
    """The strict JSON that report.json is written from: unlike ==, it
    tells -0.0 from 0.0."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_panels())
@example(_short_only_flat_day())
def test_backtest_matches_reference(case):
    prices, signals, schedule, cut = case
    by_nu = None
    for rank_by in ("nu", "mu_tilde"):
        got = _outcome(backtest, prices, signals, schedule, rank_by)
        want = _outcome(backtest_reference, as_rows(prices), as_rows(signals), schedule, rank_by)
        if rank_by == "nu":
            by_nu = want
        if isinstance(want, type):
            if want is td.NoOverlap and rank_by == "mu_tilde" and by_nu is not td.NoOverlap:
                # the reference's false NoOverlap: ranked by nu_hat alone,
                # the same signals do align with prices
                want = td.TooFewPriceDays
            assert got is want
            continue
        assert not isinstance(got, type), got
        # weights bit for bit and in the order the weight files list them
        assert repr([(s.date, list(s.weights.items())) for s in got.rebalances]) == repr(
            [(s.date, list(s.weights.items())) for s in want.rebalances]
        )
        # daily returns, drops, turnover, leg means and the summary statistics
        assert _report_text(got) == _report_text(want)
        for snap in got.rebalances:
            if any(snap.weights.values()):
                assert snap.net == 0.0
                assert abs(snap.gross - 1.0) < 1e-12
        # appending the data after `cut` leaves the weights up to `cut` as they were
        early = _outcome(
            backtest,
            {n: (d[d <= cut], p[d <= cut]) for n, (d, p) in prices.items()},
            _until(signals, cut),
            schedule,
            rank_by,
        )
        if not isinstance(early, type):
            full = {s.date: s.weights for s in got.rebalances}
            assert early.rebalances
            for snap in early.rebalances:
                assert snap.weights == full[snap.date]


# ---------------------------------------------------------------------------
# signal quality


def test_signal_quality_perfect_and_reversed():
    true = {f"N{i}": float(i) for i in range(10)}
    assert signal_quality(true, dict(true)) == pytest.approx(1.0, abs=1e-12)
    flipped = {k: -v for k, v in true.items()}
    assert signal_quality(true, flipped) == pytest.approx(-1.0, abs=1e-12)


def test_signal_quality_matches_scipy_spearman_with_ties():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(3, 40))
        # few distinct values, so most draws have ties in both inputs
        a = rng.integers(0, rng.integers(2, 8), n).astype(float)
        b = np.round(rng.normal(size=n), int(rng.integers(0, 2)))
        names = [f"N{i}" for i in range(n)]
        got = signal_quality(dict(zip(names, a)), dict(zip(names, b)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns on a constant input
            want = float(spearmanr(a, b).statistic)
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == pytest.approx(want, abs=1e-15)


def test_signal_quality_nan_for_constant_or_nan_input():
    names = ["A", "B", "C", "D"]
    true = dict(zip(names, [1.0, 2.0, 3.0, 4.0]))
    assert math.isnan(signal_quality(true, dict.fromkeys(names, 0.5)))
    assert math.isnan(signal_quality(true, dict(zip(names, [1.0, math.nan, 3.0, 4.0]))))


def test_signal_quality_needs_three_common_names():
    with pytest.raises(td.TooFewNames):
        signal_quality({"A": 1.0, "B": 2.0}, {"A": 1.0, "B": 2.0})
    with pytest.raises(td.TooFewNames):
        signal_quality({"A": 1.0, "B": 2.0, "C": 3.0}, {"A": 1.0, "X": 2.0, "Y": 3.0})


def test_schedule_resolution():
    days = _days(50)
    sched = RebalanceSchedule(every=21)
    assert sched.resolve(days) == [days[0], days[21], days[42]]
    with pytest.raises(td.ValidationError):
        RebalanceSchedule(every=0).resolve(days)
