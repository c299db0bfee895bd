"""Spread synthesis and log-log regression extraction."""

import csv
import datetime as dt
import logging
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import linregress

import tanhdrift as td
from tanhdrift import cds
from tanhdrift.cds import (
    Signals,
    SpreadModelConfig,
    SpreadSeries,
    extract_nu,
    extract_universe,
    implied_s_star,
    load_signals_csv,
    load_spread_series,
    rolling_extract,
    synth_spread,
    write_signals_csv,
)
from tanhdrift.portfolio import signal_quality
from tanhdrift.universe import (
    UniverseSpec,
    generate_universe,
    load_manifest,
    load_price_series,
    load_truth,
)

import oracles
from oracles import exact_log_default_prob, ols_fit


def _dates(n, start=dt.date(2021, 1, 4)):
    return [start + dt.timedelta(days=i) for i in range(n)]


def _series(prices, spreads, name="X"):
    return SpreadSeries(name, _dates(len(prices)), prices, spreads)


def _fit(series, window_start, window_end, **kwargs):
    """extract_nu's one row, as a record."""
    ((rec,),) = oracles.as_rows(extract_nu(series, window_start, window_end, **kwargs)).values()
    return rec


def _line_series(n, a_tilde, nu, lo=100.0, hi=140.0, name="X"):
    prices = np.exp(np.linspace(math.log(lo), math.log(hi), n))
    spreads = np.exp(a_tilde - 2.0 * nu * np.log(prices))
    return _series(prices, spreads, name=name)


# ---------------------------------------------------------------------------
# types


def test_series_rejects_nonpositive_naming_first_bad_date():
    d = _dates(4)
    with pytest.raises(td.NonPositiveValue, match=f"price .* -1.0 on {d[1]}"):
        SpreadSeries("X", d, [10.0, -1.0, 0.0, 10.0], [5.0] * 4)
    with pytest.raises(td.NonPositiveValue, match=f"spread .* 0.0 on {d[2]}"):
        SpreadSeries("X", d, [10.0] * 4, [5.0, 5.0, 0.0, 5.0])
    with pytest.raises(td.NonPositiveValue, match=f"price .* nan on {d[3]}"):
        SpreadSeries("X", d, [10.0, 10.0, 10.0, math.nan], [5.0] * 4)
    with pytest.raises(td.NonPositiveValue, match=f"spread must be finite > 0, got inf on {d[1]}"):
        SpreadSeries("X", d, [10.0] * 4, [5.0, math.inf, 5.0, 5.0])


def test_series_requires_increasing_dates():
    d = dt.date(2021, 1, 4)
    with pytest.raises(td.ValidationError):
        SpreadSeries("X", [d, d], [10.0, 11.0], [5.0, 5.0])
    with pytest.raises(td.ValidationError):
        SpreadSeries("X", [d, d - dt.timedelta(days=1)], [10.0, 11.0], [5.0, 5.0])


def test_series_rejects_mismatched_lengths():
    with pytest.raises(td.ValidationError):
        SpreadSeries("X", _dates(3), [10.0, 11.0], [5.0, 5.0, 5.0])
    with pytest.raises(td.ValidationError):
        SpreadSeries("X", _dates(2), [10.0, 11.0], [5.0, 5.0, 5.0])
    with pytest.raises(td.ValidationError):
        SpreadSeries("X", _dates(2), [[10.0, 11.0]], [[5.0, 5.0]])


def test_series_holds_read_only_copies():
    prices = np.array([10.0, 11.0])
    days = np.array(_dates(2), dtype="M8[D]")
    series = SpreadSeries("X", days, prices, [5.0, 6.0])
    prices[0] = 99.0
    days[0] = days[1]
    assert series.price[0] == 10.0
    assert series.dates.tolist() == _dates(2)
    assert len(series) == 2
    with pytest.raises(ValueError):
        series.price[1] = 1.0
    with pytest.raises(ValueError):
        series.dates[1] = days[0]


def test_signals_checks_every_row_and_holds_read_only_copies():
    d = _dates(3)
    nu = np.array([0.5, 1.0, 1.5])
    names = ["X", "Y", "X"]
    table = Signals(names, d, d, nu, [3.0] * 3, [0.9, math.nan, 1.0], [21] * 3, [0.1] * 3)
    nu[0] = 9.0
    names[0] = "Z"
    assert len(table) == 3 and table.nu_hat[0] == 0.5 and table.name.tolist() == ["X", "Y", "X"]
    assert table.window_end.dtype == np.dtype("M8[D]") and table.n_obs.dtype == np.int64
    assert table.name.dtype == object
    with pytest.raises(ValueError):
        table.a_tilde[0] = 1.0
    with pytest.raises(ValueError):
        table.name[0] = "Z"
    with pytest.raises(td.ValidationError, match=r"^nu_hat, a_tilde must be finite: 1\.0, inf$"):
        Signals(["X"] * 3, d, d, [0.5, 1.0, 1.5], [3.0, math.inf, -math.inf], [1.0] * 3,
                [21] * 3, [0.1] * 3)
    with pytest.raises(td.ValidationError, match=r"^r_squared out of \[0, 1\]: -0\.1$"):
        Signals(["X"] * 3, d, d, [0.5] * 3, [3.0] * 3, [1.0, -0.1, 1.5], [21] * 3, [0.1] * 3)
    with pytest.raises(td.ValidationError, match="shape"):
        Signals(["X"] * 3, d, d[:2], [0.5] * 3, [3.0] * 3, [1.0] * 3, [21] * 3, [0.1] * 3)
    with pytest.raises(td.ValidationError, match="shape"):
        Signals("X", d, d, [0.5] * 3, [3.0] * 3, [1.0] * 3, [21] * 3, [0.1] * 3)


def test_signals_concat_take_and_by_name():
    d = _dates(4)
    a = Signals(["B", "A"], d[:2], d[:2], [1.0, 2.0], [0.0] * 2, [1.0] * 2, [21] * 2, [0.0] * 2)
    b = Signals(["B", "C"], d[2:], d[2:], [3.0, 4.0], [0.0] * 2, [1.0] * 2, [21] * 2, [0.0] * 2)
    table = Signals.concat([a, b])
    assert table.name.tolist() == ["B", "A", "B", "C"]
    assert table.nu_hat.tolist() == [1.0, 2.0, 3.0, 4.0]
    groups = table.by_name()
    assert list(groups) == ["A", "B", "C"]
    assert [rows.tolist() for rows in groups.values()] == [[1], [0, 2], [3]]
    assert table.take(groups["B"]).window_end.tolist() == [d[0], d[2]]
    empty = Signals.concat([])
    assert len(empty) == 0 and empty.by_name() == {} and empty.name.dtype == object
    assert len(table.take(slice(0, 0))) == 0
    # the package's own tables keep the arrays it built: read-only, not copied
    for built in (table, table.take(groups["B"]), table.take(slice(1, 3)), empty):
        assert not any(getattr(built, c).flags.writeable for c in cds._SIGNAL_COLUMNS)
    assert np.shares_memory(table.take(slice(1, 3)).nu_hat, table.nu_hat)
    nu = np.array([1.0, math.inf])
    with pytest.raises(td.ValidationError, match="must be finite"):
        Signals._own(np.array(["A", "B"], object), d[:2], d[:2], nu, np.zeros(2), np.ones(2),
                     np.full(2, 21), np.zeros(2))


def test_spread_config_normalization():
    cfg = SpreadModelConfig(recovery_rate=0.4, maturity=5.0)
    assert cfg.b == pytest.approx(1e4 * 0.6 / 5.0)
    with pytest.raises(td.ValidationError):
        SpreadModelConfig(recovery_rate=-0.1, maturity=5.0)
    with pytest.raises(td.ValidationError):
        SpreadModelConfig(recovery_rate=0.4, maturity=0.0)


# ---------------------------------------------------------------------------
# synth_spread


def test_synth_spread_formula():
    # P = 0.05 at R=0.4, T=5 -> 1e4 * 0.6 * 0.05 / 5 = 60 bps
    cfg = SpreadModelConfig(recovery_rate=0.4, maturity=5.0)
    params = td.ModelParams.from_threshold_price(1.0, 0.2, 100.0)
    s0 = 100.0 * math.sqrt(19.0)  # (s0/s_star)**2 = 19 -> P = 1/20
    assert td.default_prob_asymptotic(params, s0, td.Direction.HEALTHY_TO_DISTRESSED).value == (
        pytest.approx(0.05, rel=1e-12)
    )
    assert synth_spread(params, cfg, s0) == pytest.approx(60.0, rel=1e-12)


def test_synth_spread_composes_with_default_prob():
    cfg = SpreadModelConfig(recovery_rate=0.4, maturity=5.0)
    params = td.ModelParams.from_threshold_price(1.0, 0.2, 100.0)
    assert synth_spread(params, cfg, 150.0) == pytest.approx(1200.0 / 3.25, rel=1e-12)


def test_synth_spread_full_recovery_is_zero():
    cfg = SpreadModelConfig(recovery_rate=1.0, maturity=5.0)
    params = td.ModelParams.from_threshold_price(1.0, 0.2, 100.0)
    assert synth_spread(params, cfg, 150.0) == 0.0


def test_synth_spread_rejects_distressed_start():
    cfg = SpreadModelConfig()
    params = td.ModelParams.from_threshold_price(1.0, 0.2, 100.0)
    with pytest.raises(td.ValidationError):
        synth_spread(params, cfg, 100.0)
    with pytest.raises(td.ValidationError):
        synth_spread(params, cfg, 80.0)


# ---------------------------------------------------------------------------
# extract_nu


def test_exact_line_recovered():
    series = _line_series(21, a_tilde=3.0, nu=0.8)
    rec = _fit(series, series.dates[0], series.dates[-1])
    assert rec.nu_hat == pytest.approx(0.8, abs=1e-10)
    assert rec.a_tilde == pytest.approx(3.0, abs=1e-10)
    assert rec.r_squared == pytest.approx(1.0, abs=1e-12)
    assert rec.n_obs == 21
    assert rec.slope_stderr == pytest.approx(0.0, abs=1e-8)


def test_extraction_matches_independent_ols():
    # exact-probability spreads over a narrow price band: the fit must
    # equal an independently coded least-squares solution, and carry the
    # known linearization bias (nu_hat ~ nu * logistic(2 nu ln(S/S_star)))
    params = td.ModelParams.from_threshold_price(1.0, 0.2, 100.0)
    cfg = SpreadModelConfig(recovery_rate=0.4, maturity=5.0)
    prices = np.exp(np.linspace(math.log(140.0), math.log(160.0), 21))
    spreads = [synth_spread(params, cfg, float(s)) for s in prices]
    series = _series(prices, spreads)
    rec = _fit(series, series.dates[0], series.dates[-1])
    intercept, slope = ols_fit(np.log(prices), math.log(cfg.b) + exact_log_default_prob(1.0, 100.0, prices))
    assert rec.nu_hat == pytest.approx(-slope / 2.0, abs=1e-10)
    assert rec.a_tilde == pytest.approx(intercept, abs=1e-8)
    assert rec.nu_hat == pytest.approx(0.6911985086, abs=1e-6)


def test_scale_invariance_of_slope():
    params = td.ModelParams.from_threshold_price(1.2, 0.2, 50.0)
    cfg = SpreadModelConfig()
    prices = np.exp(np.linspace(math.log(300.0), math.log(400.0), 30))
    spreads = np.array([synth_spread(params, cfg, float(s)) for s in prices])
    base = _fit(_series(prices, spreads), _dates(1)[0], _dates(30)[-1])
    for c in (7.0, 0.001, 3.7e5):
        scaled = _fit(_series(prices, c * spreads), _dates(1)[0], _dates(30)[-1])
        assert scaled.nu_hat == pytest.approx(base.nu_hat, abs=1e-12)
        assert scaled.a_tilde - base.a_tilde == pytest.approx(math.log(c), abs=1e-10)
        assert scaled.r_squared == pytest.approx(base.r_squared, abs=1e-12)


def test_degenerate_prices_rejected():
    prices = np.full(21, 120.0)
    spreads = np.linspace(40, 50, 21)
    with pytest.raises(td.DegeneratePrices):
        _fit(_series(prices, spreads), _dates(1)[0], _dates(21)[-1])


def test_insufficient_data_rejected():
    series = _line_series(10, a_tilde=3.0, nu=0.8)
    with pytest.raises(td.InsufficientData):
        _fit(series, series.dates[0], series.dates[-1])
    # a narrower window over a long series trips the same check
    long_series = _line_series(40, a_tilde=3.0, nu=0.8)
    with pytest.raises(td.InsufficientData):
        _fit(long_series, _dates(40)[0], _dates(40)[5])


def test_constant_spreads_fit_zero_slope():
    prices = np.exp(np.linspace(math.log(100), math.log(130), 21))
    spreads = np.full(21, 55.0)
    rec = _fit(_series(prices, spreads), _dates(1)[0], _dates(21)[-1])
    assert rec.nu_hat == 0.0
    assert rec.r_squared == 1.0


def test_small_p_bias_shrinks_with_price_ratio():
    # linearization bias drops monotonically over S0/S_star in {1.5, 3, 10}
    nu_true = 1.5
    params = td.ModelParams.from_threshold_price(nu_true, 0.2, 100.0)
    cfg = SpreadModelConfig()
    biases = []
    for ratio in (1.5, 3.0, 10.0):
        prices = np.exp(np.linspace(math.log(95.0 * ratio), math.log(105.0 * ratio), 21))
        spreads = [synth_spread(params, cfg, float(s)) for s in prices]
        rec = _fit(_series(prices, spreads), _dates(1)[0], _dates(21)[-1])
        biases.append(abs(rec.nu_hat - nu_true))
    assert biases[0] > biases[1] > biases[2]
    assert biases[2] < 0.01


def test_intercept_relation_on_linearized_data():
    # spreads generated from the small-P line itself: a_tilde = 2 nu ln S_star + ln b
    nu_true, s_star = 1.1, 80.0
    cfg = SpreadModelConfig(recovery_rate=0.4, maturity=5.0)
    a_tilde = 2.0 * nu_true * math.log(s_star) + math.log(cfg.b)
    series = _line_series(25, a_tilde=a_tilde, nu=nu_true, lo=400.0, hi=520.0)
    rec = _fit(series, series.dates[0], series.dates[-1])
    assert rec.a_tilde == pytest.approx(a_tilde, abs=1e-8)
    assert rec.nu_hat == pytest.approx(nu_true, abs=1e-10)
    assert implied_s_star(rec.nu_hat, rec.a_tilde, cfg) == pytest.approx(s_star, rel=1e-8)


def test_implied_s_star_guards():
    cfg = SpreadModelConfig()
    with pytest.raises(td.ValidationError):
        implied_s_star(0.0, 3.0, cfg)
    with pytest.raises(td.ValidationError):
        implied_s_star(1.0, 3.0, SpreadModelConfig(recovery_rate=1.0))


# ---------------------------------------------------------------------------
# rolling windows


def test_rolling_window_count():
    series = _line_series(42, a_tilde=3.0, nu=0.8)
    records = rolling_extract(series, window_len=21, stride=21)
    assert len(records) == 2
    assert records.window_start.tolist() == [series.dates[0], series.dates[21]]
    assert records.window_end.tolist() == [series.dates[20], series.dates[41]]


def test_rolling_piecewise_regimes():
    # ratio ~ 50 keeps the linearization bias well under the tolerance
    cfg = SpreadModelConfig()
    params_a = td.ModelParams.from_threshold_price(0.5, 0.2, 10.0)
    params_b = td.ModelParams.from_threshold_price(1.5, 0.2, 10.0)
    prices = np.exp(np.linspace(math.log(480.0), math.log(520.0), 42))
    spreads = [synth_spread(params_a, cfg, float(s)) for s in prices[:21]] + [
        synth_spread(params_b, cfg, float(s)) for s in prices[21:]
    ]
    records = rolling_extract(_series(prices, spreads), window_len=21, stride=21)
    assert records.nu_hat[0] == pytest.approx(0.5, abs=0.02)
    assert records.nu_hat[-1] == pytest.approx(1.5, abs=0.02)


def test_rolling_all_degenerate_is_empty():
    prices = np.full(42, 77.0)
    spreads = np.linspace(40, 60, 42)
    with pytest.raises(td.EmptyResult):
        rolling_extract(_series(prices, spreads), window_len=21, stride=21)


def test_rolling_skips_bad_windows(caplog):
    prices = np.concatenate([np.full(42, 77.0), np.exp(np.linspace(4.6, 4.8, 21))])
    spreads = np.exp(3.0 - 1.0 * np.log(prices))
    with caplog.at_level(logging.WARNING, logger="tanhdrift.cds"):
        records = rolling_extract(_series(prices, spreads), window_len=21, stride=21)
    assert len(records) == 1
    assert records.nu_hat[0] == pytest.approx(0.5, abs=1e-10)
    # one line for the name, with the count and the reason
    assert len(caplog.records) == 1
    assert "2 of 3 windows skipped" in caplog.records[0].getMessage()
    assert "std < 1e-10" in caplog.records[0].getMessage()


def test_rolling_window_shorter_than_min_is_empty(caplog):
    series = _line_series(30, a_tilde=3.0, nu=0.8)
    with caplog.at_level(logging.WARNING, logger="tanhdrift.cds"):
        with pytest.raises(td.EmptyResult):
            rolling_extract(series, window_len=10, stride=10)
    assert len(caplog.records) == 1
    assert "3 of 3 windows skipped: 10 < 15 observations" in caplog.records[0].getMessage()
    with pytest.raises(td.ValidationError):
        rolling_extract(series, window_len=0, stride=5)
    with pytest.raises(td.ValidationError):
        rolling_extract(series, window_len=5, stride=0)


def test_rolling_series_shorter_than_window_is_empty():
    with pytest.raises(td.EmptyResult):
        rolling_extract(_line_series(20, a_tilde=3.0, nu=0.8), window_len=21, stride=1)


def test_rolling_one_observation_windows_are_skipped(caplog):
    # A single point has no sample std and so no slope: every window is
    # skipped as degenerate, with one log record for the name and no
    # numpy warning.
    series = _line_series(5, a_tilde=3.0, nu=0.8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with caplog.at_level(logging.WARNING, logger="tanhdrift.cds"):
            with pytest.raises(td.EmptyResult):
                rolling_extract(series, window_len=1, stride=2, min_window=1)
        with pytest.raises(td.DegeneratePrices):
            _fit(series, series.dates[2], series.dates[2], min_window=1)
    assert len(caplog.records) == 1
    assert "3 of 3 windows skipped" in caplog.records[0].getMessage()


def test_rolling_two_observation_windows_are_exact_lines():
    series = _line_series(6, a_tilde=3.0, nu=0.8)
    records = rolling_extract(series, window_len=2, stride=3, min_window=2)
    assert records.window_end.tolist() == [series.dates[1], series.dates[4]]
    assert records.nu_hat == pytest.approx([0.8] * 2, rel=1e-10)
    assert records.a_tilde == pytest.approx([3.0] * 2, rel=1e-10)
    assert records.r_squared == pytest.approx([1.0] * 2, abs=1e-12)
    assert records.slope_stderr.tolist() == [0.0, 0.0]


def test_extract_nu_window_selection_by_date():
    line = _line_series(40, a_tilde=3.0, nu=0.8)
    # observations every other day
    d = [dt.date(2021, 1, 4) + dt.timedelta(days=2 * i) for i in range(40)]
    series = SpreadSeries("X", d, line.price, line.spread)
    rec = _fit(series, d[5], d[24])
    assert (rec.window_start, rec.window_end, rec.n_obs) == (d[5], d[24], 20)
    # bounds between observation dates select the observations inside
    one = dt.timedelta(days=1)
    rec = _fit(series, d[5] - one, d[24] + one)
    assert (rec.window_start, rec.window_end, rec.n_obs) == (d[5], d[24], 20)
    rec = _fit(series, d[5] + one, d[24] - one)
    assert (rec.window_start, rec.window_end, rec.n_obs) == (d[6], d[23], 18)
    with pytest.raises(td.InsufficientData):
        _fit(series, d[10], d[5], min_window=0)
    with pytest.raises(td.InsufficientData):
        _fit(series, d[-1] + dt.timedelta(days=1), d[-1] + dt.timedelta(days=9), min_window=0)


# Prices and spreads from small sets give repeated values, constant-price
# windows (skipped) and constant-spread windows (slope 0, r^2 = 1).
_windowed = st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from([40.0, 55.0, 55.0, 70.0, 123.5]), min_size=n, max_size=n),
    st.lists(st.sampled_from([3.0, 3.0, 17.25, 60.0, 900.0]), min_size=n, max_size=n),
    st.integers(1, n + 2),  # window_len
    st.integers(1, 2 * n + 5),  # stride, often > window_len
    st.integers(0, 25),  # min_window, sometimes > window_len
))


@settings(max_examples=300, deadline=None)
@given(_windowed)
def test_rolling_every_window_matches_per_window_ols(case):
    prices, spreads, window_len, stride, min_window = case
    series = _series(prices, spreads)
    ln_s, ln_z = np.log(prices), np.log(spreads)
    expected = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # std of one point
        for i in range(0, len(prices) - window_len + 1, stride):
            x, y = ln_s[i : i + window_len], ln_z[i : i + window_len]
            if window_len < min_window or not np.std(x, ddof=1) >= 1e-10:
                continue
            expected.append((i, x, y))
    if not expected:
        with pytest.raises(td.EmptyResult):
            rolling_extract(series, window_len, stride, min_window)
        return
    records = rolling_extract(series, window_len, stride, min_window)
    assert len(records) == len(expected)
    close = dict(rel=1e-12, abs=1e-12)
    for rec, (i, x, y) in zip(oracles.as_rows(records)["X"], expected):
        assert (rec.window_start, rec.window_end) == (series.dates[i], series.dates[i + window_len - 1])
        assert rec.n_obs == window_len
        if np.ptp(y) == 0.0:
            assert (rec.nu_hat, rec.a_tilde, rec.r_squared, rec.slope_stderr) == (0.0, y[0], 1.0, 0.0)
            continue
        res = linregress(x, y)
        assert rec.nu_hat == pytest.approx(-res.slope / 2.0, **close)
        assert rec.a_tilde == pytest.approx(res.intercept, **close)
        assert rec.r_squared == pytest.approx(min(res.rvalue**2, 1.0), **close)
        assert rec.slope_stderr == pytest.approx(res.stderr, **close)
        intercept, slope = ols_fit(x, y)
        assert rec.nu_hat == pytest.approx(-slope / 2.0, **close)
        assert rec.a_tilde == pytest.approx(intercept, **close)


# ---------------------------------------------------------------------------
# CSV round trips


def test_spread_series_csv_roundtrip(tmp_path):
    series = _line_series(21, a_tilde=3.0, nu=0.8, name="ACME")
    path = tmp_path / "ACME.csv"
    with open(path, "w") as fh:
        fh.write("date,price,spread_bps\n")
        for d, p, z in zip(series.dates.tolist(), series.price.tolist(), series.spread.tolist()):
            fh.write(f"{d.isoformat()},{p!r},{z!r}\n")
    loaded = load_spread_series(path)
    assert loaded.name == "ACME"
    assert np.array_equal(loaded.dates, series.dates)
    assert np.array_equal(loaded.price, series.price)
    assert np.array_equal(loaded.spread, series.spread)


def test_spread_series_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("day,px,bps\n2021-01-04,10.0,5.0\n")
    with pytest.raises(td.DataError):
        load_spread_series(path)


def test_spread_series_bad_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,price,spread_bps\n2021-01-04,ten,5.0\n")
    with pytest.raises(td.DataError):
        load_spread_series(path)
    path.write_text("date,price,spread_bps\n2021-01-04,10.0,-5.0\n")
    with pytest.raises(td.NonPositiveValue):
        load_spread_series(path)


def test_spread_file_bad_value_or_order_names_its_line(tmp_path):
    # both faults are data errors at the line of the row that shows them
    path = tmp_path / "neg.csv"
    path.write_text("date,price,spread_bps\n2020-01-01,10.0,5.0\n\n2020-01-02,10.0,-1\n")
    with pytest.raises(td.NonPositiveValue, match=r"^\S*neg\.csv:4: neg: spread must be finite "
                                                  r"> 0, got -1\.0 on 2020-01-02$"):
        load_spread_series(path)
    path = tmp_path / "order.csv"
    path.write_text("date,price,spread_bps\n2020-01-01,10.0,5.0\n2020-01-03,10.0,5.0\n"
                    "2020-01-03,10.0,5.0\n2020-01-02,10.0,5.0\n")
    with pytest.raises(td.DataError, match=r"^\S*order\.csv:4: order: observation dates must be "
                                           r"strictly increasing \(2020-01-03 then 2020-01-03\)$"):
        load_spread_series(path)


def test_signals_csv_roundtrip(tmp_path, monkeypatch):
    jan4, feb1, feb2, mar1 = (dt.date(2021, 1, 4), dt.date(2021, 2, 1), dt.date(2021, 2, 2),
                              dt.date(2021, 3, 1))
    table = Signals(["A", "A", "B"], [jan4, feb2, jan4], [feb1, mar1, feb1],
                    [1.25, 1.30, 0.75], [7.5, 7.6, 6.5], [0.99, 0.98, 0.97], [21, 21, 21],
                    [0.01, 0.02, 0.03])
    path = tmp_path / "signals.csv"
    monkeypatch.setattr(cds, "_WRITE_ROWS", 2)  # rows formatted per write
    write_signals_csv(table, path)
    assert path.read_text().splitlines() == [
        "name,window_start,window_end,nu_hat,a_tilde,r_squared,n_obs",
        "A,2021-01-04,2021-02-01,1.25,7.5,0.99,21",
        "A,2021-02-02,2021-03-01,1.3,7.6,0.98,21",
        "B,2021-01-04,2021-02-01,0.75,6.5,0.97,21",
    ]
    loaded = load_signals_csv(path)
    for column in ("name", "window_start", "window_end", "nu_hat", "a_tilde", "r_squared",
                   "n_obs"):
        assert np.array_equal(getattr(loaded, column), getattr(table, column))
    assert np.isnan(loaded.slope_stderr).all()


# ---------------------------------------------------------------------------
# one CSV reader behind every loader: (loader, header, good row, row with a
# bad value or None, what an empty file gives)

_LOADERS = {
    "spread": (load_spread_series, "date,price,spread_bps", "2021-01-04,10.0,5.0",
               "2021-01-04,ten,5.0", td.DataError),
    "signals": (load_signals_csv, "name,window_start,window_end,nu_hat,a_tilde,r_squared,n_obs",
                "A,2021-01-04,2021-02-01,1.25,7.5,0.99,21", "A,2021-01-04,2021-02-01,1.25,7.5,0.99,x",
                td.EmptyResult),
    "manifest": (load_manifest, "name,price_file,spread_file", "A,prices/A.csv,spreads/A.csv",
                 None, list),
    "prices": (lambda path: oracles.as_rows(load_price_series(path)), "date,price",
               "2021-01-04,10.0", "2021-13-04,10.0", td.DataError),
    "truth": (load_truth, "name,nu,sigma,s_star,s0", "A,1.5,0.2,50.0,400.0",
              "A,nu,0.2,50.0,400.0", td.DataError),
}


@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_loader_reads_rows_and_skips_blank_lines(tmp_path, kind):
    load, header, good, _bad, _empty = _LOADERS[kind]
    path = tmp_path / "f.csv"
    path.write_text(f"{header}\n\n{good}\n\n")
    assert len(load(path)) == 1


@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_loader_rejects_missing_file(tmp_path, kind):
    with pytest.raises(td.DataError, match="cannot open"):
        _LOADERS[kind][0](tmp_path / "absent.csv")


@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_loader_rejects_wrong_header(tmp_path, kind):
    load, header, good, _bad, _empty = _LOADERS[kind]
    path = tmp_path / "f.csv"
    path.write_text(f"{header},extra\n{good},1\n")
    with pytest.raises(td.DataError, match="expected header"):
        load(path)
    path.write_text(f"{header.upper()}\n{good}\n")
    with pytest.raises(td.DataError, match="expected header"):
        load(path)


@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_loader_rejects_wrong_field_count(tmp_path, kind):
    load, header, good, _bad, _empty = _LOADERS[kind]
    path = tmp_path / "f.csv"
    for row in (f"{good},extra", good.rsplit(",", 1)[0]):
        path.write_text(f"{header}\n{good}\n\n{row}\n")
        with pytest.raises(td.DataError, match=r"f\.csv:4: expected \d+ fields"):
            load(path)


@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_loader_rejects_undecodable_or_malformed_text(tmp_path, kind):
    load, header, good, _bad, _empty = _LOADERS[kind]
    path = tmp_path / "f.csv"
    path.write_bytes(f"{header}\n{good}\n".encode() + b"\xff\xfe,1\n")
    with pytest.raises(td.DataError, match="codec can't decode"):
        load(path)
    path.write_text(f"{header}\n{good}\n" + "x" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(td.DataError, match=r"f\.csv:3: field larger than field limit"):
        load(path)


@pytest.mark.parametrize("kind", sorted(k for k in _LOADERS if _LOADERS[k][3] is not None))
def test_loader_rejects_bad_value(tmp_path, kind):
    load, header, good, bad, _empty = _LOADERS[kind]
    path = tmp_path / "f.csv"
    path.write_text(f"{header}\n{good}\n{bad}\n")
    with pytest.raises(td.DataError, match=r"f\.csv:3: "):
        load(path)


@pytest.mark.parametrize("values",
                         ["nan,7.5,0.99", "1.25,inf,0.99", "1.25,7.5,1.5", "1.25,7.5,-0.1"])
def test_signals_loader_rejects_non_finite_fit_or_r_squared(tmp_path, values):
    # nu_hat and a_tilde must be finite and r_squared in [0, 1]: a data
    # error of the file, at its line
    path = tmp_path / "f.csv"
    path.write_text(f"{_LOADERS['signals'][1]}\n{_LOADERS['signals'][2]}\n"
                    f"A,2021-02-02,2021-03-01,{values},21\n")
    with pytest.raises(td.DataError, match=r"f\.csv:3: (nu_hat, a_tilde must be finite|r_squared)"):
        load_signals_csv(path)


@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_loader_empty_file_rule(tmp_path, kind):
    load, header, _good, _bad, empty = _LOADERS[kind]
    path = tmp_path / "f.csv"
    path.write_text(f"{header}\n\n")
    if empty is list:
        assert load(path) == []
        return
    with pytest.raises(empty) as info:
        load(path)
    assert (info.type is td.EmptyResult) == (empty is td.EmptyResult)


# ---------------------------------------------------------------------------
# whole-universe extraction against the per-name reference


class _Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _extract_logged(run):
    """(result or exception type and text, log messages) of run()."""
    handler, logger = _Records(), logging.getLogger("tanhdrift.cds")
    logger.addHandler(handler)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run()
    except td.TanhDriftError as exc:
        result = (type(exc), str(exc))
    finally:
        logger.removeHandler(handler)
    return result, handler.messages


def _column_bits(table):
    return [getattr(table, c).tolist() if c == "name" else getattr(table, c).tobytes()
            for c in cds._SIGNAL_COLUMNS]


# A name is a series from small value sets (constant-price windows, flat
# spreads, repeated values), one observation long at times, or a file
# that fails to load.
_universe = st.tuples(
    st.lists(st.one_of(
        st.integers(1, 30).flatmap(lambda n: st.tuples(
            st.lists(st.sampled_from([40.0, 55.0, 55.0, 70.0, 123.5]), min_size=n, max_size=n),
            st.lists(st.sampled_from([3.0, 3.0, 17.25, 60.0, 900.0]), min_size=n, max_size=n),
        )),
        st.sampled_from(["missing", "bad row", "non-positive"]),
    ), min_size=1, max_size=7),
    st.integers(1, 12),  # window_len
    st.integers(1, 25),  # stride, often > window_len
    st.integers(0, 20),  # min_window, sometimes > window_len
    st.integers(1, 6),  # windows per pass: names straddle passes
    st.permutations(range(7)),  # manifest order is not name order
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_universe)
def test_extract_universe_equals_per_name_reference(case):
    names_data, window_len, stride, min_window, per_pass, order = case
    names = [f"N{j}" for j in order if j < len(names_data)]
    with tempfile.TemporaryDirectory() as tmp:
        sources = []
        for name, data in zip(names, names_data):
            path = Path(tmp) / f"{name}.csv"
            sources.append((name, path))
            if data == "missing":
                continue
            if isinstance(data, str):
                value = "x" if data == "bad row" else "-1.0"
                path.write_text(f"date,price,spread_bps\n2021-01-04,10.0,{value}\n")
                continue
            with open(path, "w") as fh:
                fh.write("date,price,spread_bps\n")
                for d, p, z in zip(_dates(len(data[0])), *data):
                    fh.write(f"{d.isoformat()},{p!r},{z!r}\n")

        def reference():
            tables, errors = [], []
            for name, path in sources:
                try:
                    series = load_spread_series(path, name=name)
                    tables.append(
                        oracles.rolling_extract_reference(series, window_len, stride, min_window)
                    )
                except td.DataError as exc:
                    errors.append((name, str(exc)))
            tables.sort(key=lambda t: t.name[0])
            return Signals.concat(tables), errors

        with mock.patch.object(cds, "_PASS_WINDOWS", per_pass):
            got, got_log = _extract_logged(
                lambda: extract_universe(sources, window_len, stride, min_window)
            )
        want, want_log = _extract_logged(reference)
    assert got_log == want_log
    (got, got_errors), (want, want_errors) = got, want
    assert got_errors == want_errors
    assert _column_bits(got) == _column_bits(want)


def test_extract_universe_checks_windows_before_reading(tmp_path):
    # no source is read: the missing file would be an error of its own
    for window_len, stride in ((0, 1), (5, 0)):
        with pytest.raises(td.ValidationError, match="must be >= 1"):
            extract_universe([("A", tmp_path / "absent.csv")], window_len, stride)


# ---------------------------------------------------------------------------
# The limit of the asymptotic spread relation: finite-maturity spreads


def _finite_maturity_extraction(out, n_names, seed, ratio_range):
    """Median nu_hat / nu over the names and its 10% and 90% quantiles,
    and the Spearman correlation of each name's median nu_hat with nu,
    for spreads priced with the model's 5-year default probability
    b * P(ln S, T = 5) from the paths of a synthetic universe, and the
    Spearman correlation on the universe's own asymptotic spreads."""
    generate_universe(UniverseSpec(n_names=n_names, days=504, seed=seed,
                                   ratio_range=ratio_range), out)
    b = SpreadModelConfig().b
    with open(out / "truth.csv", newline="") as fh:
        truth = {row["name"]: row for row in csv.DictReader(fh)}
    finite, asymptotic = [], []
    for name, price_file, spread_file in load_manifest(out / "manifest.csv"):
        row = truth[name]
        params = td.ModelParams.from_threshold_price(float(row["nu"]), float(row["sigma"]),
                                                     float(row["s_star"]))
        days, prices = load_price_series(price_file)
        healthy = prices > params.s_star  # the days the spread files hold
        z = b * td.regime_transition_probs_finite(
            params, np.log(prices[healthy]), 5.0, td.Direction.HEALTHY_TO_DISTRESSED)
        finite.append((name, SpreadSeries(name, days[healthy], prices[healthy], z)))
        asymptotic.append((name, spread_file))
    nu = {name: float(row["nu"]) for name, row in truth.items()}

    def medians(sources):
        table, errors = extract_universe(sources, 21, 21)
        assert errors == []
        return {n: float(np.median(table.nu_hat[r])) for n, r in table.by_name().items()}

    medians_finite = medians(finite)
    ratio = np.quantile([v / nu[n] for n, v in medians_finite.items()], [0.1, 0.5, 0.9])
    return (ratio, signal_quality(nu, medians_finite),
            signal_quality(nu, medians(asymptotic)))


@pytest.mark.parametrize("n_names, seed, ratio_range, ratio, rho_finite, rho_asymptotic", [
    (400, 1, (5.0, 15.0), (1.379, 2.443, 5.669), 0.4372, 0.99988),
    (200, 2, (1.2, 2.0), (0.835, 1.159, 2.277), 0.8125, 0.9778),
])
def test_finite_maturity_spreads_bias_and_rank_loss(
    tmp_path, n_names, seed, ratio_range, ratio, rho_finite, rho_asymptotic
):
    # synth-universe prices spreads with the asymptotic probability, the
    # relation extract inverts; the model's own probability of default
    # within the 5-year maturity is the finite-horizon one. On the same
    # paths it biases nu_hat up (far from the threshold, by more than 2x)
    # and loses much of the ranking. The pinned values were measured on
    # these universes (504 days, window and stride 21; the smallest
    # spread 2.8e-13 bps, none underflowed); the bounds allow only for
    # floating-point differences between platforms.
    got_ratio, got_finite, got_asymptotic = _finite_maturity_extraction(
        tmp_path, n_names, seed, ratio_range)
    assert got_ratio == pytest.approx(ratio, abs=0.01)
    assert got_finite == pytest.approx(rho_finite, abs=0.002)
    assert got_asymptotic == pytest.approx(rho_asymptotic, abs=0.0005)
