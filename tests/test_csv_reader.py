"""The columnar CSV reader against the row-wise loaders it replaced.

Every loader is run next to its csv.reader reference from oracles.py on
generated files: quoted fields holding commas, quotes and line breaks,
blank lines, mixed LF / CRLF / CR line endings, no final newline, and a
wrong field count, a bad value, an oversize field or an undecodable
byte at a random line. Both must return equal values (floats bit for
bit; per-name columns through oracles.as_rows) or raise the same
exception type with the same message. The intended differences, numpy's
stricter float syntax, the manifest's name rule and the place of a bad
spread file value (_spread_outcome), are tested on their own below, and
so is the date syntax, which must not differ.
"""

import csv
import datetime as dt
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tanhdrift as td
from tanhdrift.cds import SpreadSeries, load_signals_csv, load_spread_series
from tanhdrift.portfolio import RebalanceSchedule, backtest
from tanhdrift.universe import load_manifest, load_price_series, load_truth

import oracles

# kind -> (new loader, reference loader, header, column types)
_KINDS = {
    "spread": (load_spread_series, oracles.load_spread_series_reference,
               "date,price,spread_bps", ("date", "mostly positive", "mostly positive")),
    "prices": (lambda path: oracles.as_rows(load_price_series(path)),
               oracles.load_price_series_reference, "date,price", ("date", "price")),
    "signals": (lambda path: oracles.as_rows(load_signals_csv(path)),
                oracles.load_signals_csv_reference,
                "name,window_start,window_end,nu_hat,a_tilde,r_squared,n_obs",
                ("str", "date", "date", "float", "float", "unit", "int")),
    "manifest": (load_manifest, oracles.load_manifest_reference,
                 "name,price_file,spread_file", ("name", "str", "str")),
    "truth": (load_truth, oracles.load_truth_reference,
              "name,nu,sigma,s_star,s0", ("str", "float", "str", "str", "str")),
}

_SPACE = st.sampled_from(["", " ", "\t", "\x0c", "\xa0", " "])
_TEXT = st.text(alphabet=st.sampled_from(list("abcAZ09_./- é\t,\"\r\n")), max_size=8)


def _float_text(draw, positive):
    if positive:
        x = draw(st.floats(min_value=1e-3, max_value=1e6))
    else:
        x = draw(st.floats(width=64) | st.sampled_from([0.0, -0.0, 0.5, 1.5]))
    text = draw(st.sampled_from([repr(x), f"{x:g}", f"{x:.17g}", f"{x:e}"]))
    if not positive and draw(st.integers(0, 3)) == 0:
        text = draw(st.sampled_from(["inf", "-Infinity", "NaN", "-nan", "1e400", "+1E-5"]))
    return draw(_SPACE) + text + draw(_SPACE)


@st.composite
def _field(draw, kind, i):
    """The text of one valid field of a column of the given kind."""
    if kind == "date":
        return (dt.date(2020, 1, 1) + dt.timedelta(days=i)).isoformat()
    if kind == "price":
        return _float_text(draw, positive=True)
    if kind == "mostly positive":
        return _float_text(draw, positive=draw(st.integers(0, 15)) > 0)
    if kind == "float":
        return _float_text(draw, positive=draw(st.booleans()))
    if kind == "unit":
        x = draw(st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([1.5, -0.1]))
        return repr(x)
    if kind == "int":
        return draw(st.sampled_from(["", " ", "+"])) + str(draw(st.integers(2, 400)))
    if kind == "name":  # one the manifest's name rule admits, unique by its row
        return draw(_TEXT).translate(_NOT_IN_NAMES) + f"#{i}"
    return draw(_TEXT)


_NOT_IN_NAMES = str.maketrans(dict.fromkeys(',"\r\n', "_"))


def _quote(text):
    return '"' + text.replace('"', '""') + '"'


# a field each column type rejects (every string is a valid str)
_BAD_VALUE = {"date": "2021-13-04", "price": "ten", "mostly positive": "0x10", "float": "1.5.2",
              "unit": "", "int": "2.5"}


@st.composite
def _csv_file(draw, kind):
    """(bytes of a CSV file of kind, description of the fault put in)."""
    header, types = _KINDS[kind][2], _KINDS[kind][3]
    n = draw(st.integers(0, 12))
    rows = [[draw(_field(t, i)) for t in types] for i in range(n)]
    fault = draw(st.sampled_from(["none", "field count", "bad value", "oversize", "undecodable"]))
    at = draw(st.integers(0, max(n - 1, 0)))
    if fault == "field count" and n:
        rows[at] = rows[at] + ["x"] if draw(st.booleans()) else rows[at][:-1]
    elif fault == "bad value" and n:
        cols = [j for j, t in enumerate(types) if t in _BAD_VALUE]
        if cols:
            j = draw(st.sampled_from(cols))
            rows[at][j] = _BAD_VALUE[types[j]]
    elif fault == "oversize" and n:
        j = draw(st.integers(0, len(types) - 1))
        filler = draw(st.sampled_from(["x", "0", " "]))
        rows[at][j] = filler * (csv.field_size_limit() + 1) + ("1" if filler == " " else "")
    lines = []
    for row in rows:
        fields = []
        for text in row:
            must = any(c in text for c in ',"\r\n') or text[:1] == '"'
            fields.append(_quote(text) if must or draw(st.integers(0, 7)) == 0 else text)
        lines.append(",".join(fields))
        if draw(st.integers(0, 3)) == 0:
            lines.append("")  # a blank line
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in range(len(lines) + 1)]
    text = header + ends[0] + "".join(line + end for line, end in zip(lines, ends[1:]))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]
    data = text.encode()
    if fault == "undecodable":
        pos = draw(st.integers(len(header) + 1, len(data)))
        data = data[:pos] + b"\xff" + data[pos:]
    return data, fault


def _bits(value):
    """value with every float replaced by its 8 bytes, for bit-for-bit
    comparison (NaN included)."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tobytes()
    if isinstance(value, SpreadSeries):
        return value.name, _bits(value.dates), _bits(value.price), _bits(value.spread)
    if isinstance(value, oracles.SignalRecord):
        return tuple(_bits(getattr(value, f)) for f in value.__dataclass_fields__)
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_bits(v) for v in value)
    return value


def _outcome(load, path):
    try:
        return "ok", _bits(load(path))
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _spread_outcome(path, want):
    """The spread loader's outcome, given the reference's: a price or
    spread that is not finite and > 0 is a NonPositiveValue at its
    path:line, raised in file order with the errors of reading, where
    the reference raised it without a place after reading every row."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader, None)
            for fields in reader:
                if not fields:
                    continue
                if len(fields) != 3:
                    return want
                day = dt.date.fromisoformat(fields[0])
                for label, value in (("price", float(fields[1])), ("spread", float(fields[2]))):
                    if not (math.isfinite(value) and value > 0):
                        return td.NonPositiveValue, (f"{path}:{reader.line_num}: f: {label} "
                                                     f"must be finite > 0, got {value} on {day}")
    except (ValueError, csv.Error):  # a read error comes first
        pass
    return want


@pytest.mark.parametrize("kind", sorted(_KINDS))
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.data_too_large])
@given(data=st.data())
def test_loader_matches_row_wise_reference(tmp_path, kind, data):
    load, reference = _KINDS[kind][:2]
    raw, fault = data.draw(_csv_file(kind))
    path = tmp_path / "f.csv"
    path.write_bytes(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(load, path)
    want = _outcome(reference, path)
    if kind == "spread":
        want = _spread_outcome(path, want)
    assert got == want, fault
    assert got[0] == "ok" or issubclass(got[0], td.DataError)


@pytest.mark.parametrize("text", ["1_0", "١", "１.5", "1_000.25"])
@pytest.mark.parametrize("kind", ["spread", "prices", "signals", "truth"])
def test_float_syntax_is_numpy_not_python(tmp_path, kind, text):
    # Python's float() takes digit-group underscores and non-ASCII digits;
    # numpy's C parser, and so every loader, rejects them at their line.
    header, types = _KINDS[kind][2], _KINDS[kind][3]
    row = [{"date": "2021-01-04", "str": "A", "int": "21"}.get(t, "0.5") for t in types]
    bad = [field.replace("-04", "-05") for field in row]
    bad[next(j for j, t in enumerate(types) if t not in ("date", "str", "int"))] = text
    path = tmp_path / "f.csv"
    path.write_text(f"{header}\n{','.join(row)}\n\n{','.join(bad)}\n", encoding="utf-8")
    _KINDS[kind][1](path)  # the row-wise loaders took it
    message = rf"f\.csv:4: could not convert string to float: '{text}'"
    with pytest.raises(td.DataError, match=message):
        _KINDS[kind][0](path)


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("body", ["", "\n", "\r\n\r\n", "\r\r\n\n"])
def test_empty_body_reads_no_rows_without_a_warning(tmp_path, kind, body):
    load, reference, header = _KINDS[kind][:3]
    path = tmp_path / "f.csv"
    path.write_text(header + "\r\n" + body, newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(load, path)
    assert got == _outcome(reference, path)


@pytest.mark.parametrize("value, shown", [("inf", "inf"), ("-3", "-3.0"), ("0", "0.0"),
                                          ("nan", "nan")])
def test_price_file_bad_value_names_its_line(tmp_path, value, shown):
    path = tmp_path / "p.csv"
    path.write_text(f"date,price\n2021-01-04,10.0\n\n2021-01-05,{value}\n2021-01-06,-1\n")
    with pytest.raises(td.NonPositiveValue,
                       match=rf"^\S*p\.csv:4: price must be finite and > 0, got {shown}$"):
        load_price_series(path)


def test_signals_bad_record_after_blank_and_quoted_lines(tmp_path):
    # the line of a rejected record counts quoted line breaks and blank lines
    path = tmp_path / "s.csv"
    path.write_text('name,window_start,window_end,nu_hat,a_tilde,r_squared,n_obs\n'
                    '"A\nB",2021-01-04,2021-02-01,1.25,7.5,0.99,21\n\n'
                    'C,2021-01-04,2021-02-01,1.25,7.5,1.5,21\n')
    with pytest.raises(td.DataError, match=r"s\.csv:5: r_squared out of \[0, 1\]: 1\.5"):
        load_signals_csv(path)


@pytest.mark.parametrize("text, accepted", [
    ("20200102", True), ("2020-W01-4", True), (" 2020-01-02", False), ("2020-01", False),
    ("NaT", False), ("2020-01-02T00", False), ("+2020-01-02", False),
])
@pytest.mark.parametrize("kind, column", [("spread", 0), ("prices", 0), ("signals", 1),
                                          ("signals", 2)])
def test_date_syntax_is_fromisoformat(tmp_path, kind, column, text, accepted):
    # Dates are read by dt.date.fromisoformat, as the row-wise loaders read
    # them. numpy's date parser would read 20200102 as the year 20200102
    # and accept each of the rejected texts.
    load, reference, header, types = _KINDS[kind]
    row = [{"date": "2019-12-30", "str": "A", "int": "21"}.get(t, "0.5") for t in types]
    probe = list(row)
    probe[column] = text
    path = tmp_path / "f.csv"
    path.write_text(f"{header}\n{','.join(row)}\n\n{','.join(_quote(f) for f in probe)}\n")
    got = _outcome(load, path)
    assert got == _outcome(reference, path)
    if accepted:
        assert got[0] == "ok"
    else:
        assert issubclass(got[0], td.DataError)
        assert f"f.csv:4: Invalid isoformat string: {text!r}" in got[1]


@pytest.mark.parametrize("name", ["N,000", 'N"0', "N\r0", "N\n0", "N\r\n0", "N001"])
def test_manifest_rejects_names_the_writers_cannot_round_trip(tmp_path, name):
    # signals.csv and the weight files write names unquoted, so a name with
    # a comma, quote or line break, or one listed twice, would not read back
    # as itself; the row-wise loader took them, the manifest loader rejects
    # them at their line (a quoted line break moves it on).
    path = tmp_path / "manifest.csv"
    path.write_text("name,price_file,spread_file\nN001,p/1.csv,s/1.csv\n\n"
                    f"{_quote(name)},p/2.csv,s/2.csv\nN002,p/3.csv,s/3.csv\n", newline="")
    assert len(oracles.load_manifest_reference(path)) == 3
    line = 4 + len(name.splitlines()) - 1
    with pytest.raises(td.DataError, match=rf"manifest\.csv:{line}: name .* (holds|repeats)"):
        load_manifest(path)


def test_signals_table_of_interleaved_names_and_duplicate_keys(tmp_path):
    # One table for the whole file, in file order: through as_rows it is the
    # reference's dict of per-name records, and of two rows of a name with
    # the same (window_end, window_start) the backtest takes the first.
    days = [dt.date(2021, 1, 4) + dt.timedelta(days=i) for i in range(6)]
    names = [f"N{i:02d}" for i in range(10)]
    lines = ["name,window_start,window_end,nu_hat,a_tilde,r_squared,n_obs"]
    for i in reversed(range(10)):  # names interleave: every name's row, then again
        lines.append(f"{names[i]},{days[0]},{days[1]},{0.1 * i!r},1.0,0.5,21")
    for i in range(10):
        lines.append(f"{names[i]},{days[0]},{days[1]},{0.1 * (10 - i)!r},2.0,0.75,21")
    path = tmp_path / "signals.csv"
    path.write_text("\n".join(lines) + "\n")
    table = load_signals_csv(path)
    assert table.name.tolist() == names[::-1] + names
    assert _outcome(lambda p: oracles.as_rows(load_signals_csv(p)), path) == _outcome(
        oracles.load_signals_csv_reference, path)

    prices = {n: (np.array(days, dtype="M8[D]"), np.linspace(100.0, 101.0 + i, 6))
              for i, n in enumerate(names)}
    schedule = RebalanceSchedule(every=2)
    report = backtest(prices, table, schedule)
    first = backtest(prices, table.take(slice(0, 10)), schedule)
    second = backtest(prices, table.take(slice(10, 20)), schedule)
    weights = [s.weights for s in report.rebalances]
    assert weights == [s.weights for s in first.rebalances]
    assert weights != [s.weights for s in second.rebalances]
    assert report.rebalances[1].weights["N09"] == 0.5  # the first rows rank by i
    want = oracles.backtest_reference(oracles.as_rows(prices), oracles.as_rows(table), schedule)
    assert report.to_dict() == want.to_dict()
