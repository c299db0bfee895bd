"""Spread synthesis and expected-return extraction from CDS spreads.

A small default probability P maps linearly to a CDS spread,
Z ~ b * P with b = 1e4 * (1 - R) / T basis points (R the recovery
rate, T the maturity in years). Composed with the asymptotic
regime-switch probability this gives, in the healthy regime,

    ln Z ~ a_tilde - 2 nu ln S0,

so an OLS regression of log spreads on log prices over a window
recovers nu as -slope / 2: the CDS market's sentiment about the stock's
expected return. The intercept a_tilde = 2 nu ln S_star + ln b is
reported raw; S_star is deliberately not extracted (it is unidentifiable
without knowing b, and the intercept is unstable out-of-sample) --
:func:`implied_s_star` computes it only when the caller supplies (R, T).

A name's observations are held as arrays (:class:`SpreadSeries`). The
windows of many names are fitted in one batched pass whose numbers are
those of scipy.stats.linregress per window: :func:`extract_universe`
reads a universe name by name and fits its windows in passes of at most
_PASS_WINDOWS windows, so a pass spans names and a name may span passes.
The fits of any number of names are one table of columns with a name
column (:class:`Signals`), from the fit through signals.csv to the
backtest. Dates are datetime64[D] arrays throughout, read from text by
dt.date.fromisoformat only. Every CSV file of the package is read
through one columnar reader, :func:`_read_csv`: exact header, blank
lines skipped, one field per header column on every other row. It reads
the body with a single numpy.loadtxt call, so floats are parsed in C and
no parse call runs per row in Python; only when a file is rejected is it
read again row by row, to name the line at fault.
"""

from __future__ import annotations

import collections
import csv
import datetime as dt
import itertools
import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, NoReturn, Sequence

import numpy as np

from .errors import (
    DataError,
    DegeneratePrices,
    EmptyResult,
    InsufficientData,
    NonPositiveValue,
    TanhDriftError,
    ValidationError,
)
from .model import Direction, ModelParams, default_prob_asymptotic

__all__ = [
    "MIN_WINDOW",
    "SpreadSeries",
    "Signals",
    "SpreadModelConfig",
    "synth_spread",
    "extract_nu",
    "rolling_extract",
    "extract_universe",
    "implied_s_star",
    "load_spread_series",
    "write_signals_csv",
    "load_signals_csv",
]

log = logging.getLogger(__name__)

# Below ~15 points the OLS slope noise dominates any signal; a calendar
# month of trading days minus holidays still clears this.
MIN_WINDOW = 15

# Windows fitted per pass of extract_universe: enough that the fixed cost
# of a pass is spread over many names, few enough that its arrays stay
# small whatever the size of the universe.
_PASS_WINDOWS = 2048


def _days(dates) -> np.ndarray:
    """dt.date objects as a datetime64[D] array, through their ordinals:
    numpy's own conversion of date objects is about 20 times slower."""
    ordinals = np.fromiter(map(dt.date.toordinal, dates), np.int64, len(dates))
    return np.datetime64("0001-01-01", "D") + (ordinals - 1)


def _store_columns(table, dtypes: dict, what: str, copy: bool | None = True) -> None:
    """Store each column named in dtypes as a read-only 1-D array of that
    dtype: a copy, or with copy=None the array itself where it already
    has that dtype. All must be as long as the first. what names the
    table in an error."""
    n = np.size(getattr(table, next(iter(dtypes))))
    for label, dtype in dtypes.items():
        values = np.array(getattr(table, label), dtype=dtype, copy=copy)
        if values.shape != (n,):
            raise ValidationError(f"{what}: {label} has shape {values.shape}, not ({n},)")
        values.setflags(write=False)
        object.__setattr__(table, label, values)


def _require_increasing(name: str, dates: np.ndarray) -> None:
    bad = np.flatnonzero(dates[1:] <= dates[:-1])
    if bad.size:
        raise ValidationError(f"{name}: observation dates must be strictly increasing "
                              f"({dates[bad[0]]} then {dates[bad[0] + 1]})")


@dataclass(frozen=True, eq=False)
class SpreadSeries:
    """One instrument's observations as arrays, in date order.

    dates is a datetime64[D] array of strictly increasing days; price
    and spread (in bps) are float arrays of the same length. All three
    are stored as read-only copies. Every price and spread must be
    finite and > 0, since logs are taken of both.
    """

    name: str
    dates: np.ndarray
    price: np.ndarray
    spread: np.ndarray

    def __post_init__(self) -> None:
        _store_columns(self, {"dates": "M8[D]", "price": float, "spread": float}, self.name)
        dates = self.dates
        for label in ("price", "spread"):
            values = getattr(self, label)
            bad = np.flatnonzero(~(np.isfinite(values) & (values > 0)))
            if bad.size:
                raise NonPositiveValue(f"{self.name}: {label} must be finite > 0, "
                                       f"got {values[bad[0]]} on {dates[bad[0]]}")
        _require_increasing(self.name, dates)

    def __len__(self) -> int:
        return len(self.dates)


# The columns of a Signals table, in signals.csv order, and their dtypes.
_SIGNAL_COLUMNS = {"name": object, "window_start": "M8[D]", "window_end": "M8[D]",
                   "nu_hat": float, "a_tilde": float, "r_squared": float, "n_obs": np.int64,
                   "slope_stderr": float}


@dataclass(frozen=True, eq=False)
class Signals:
    """Extracted signals as columns, one row per window of a name.

    A table holds any number of names, in any row order. name is an
    object array of str, window_start and window_end are datetime64[D],
    n_obs int64 and the rest float64, stored as read-only copies of one
    length (the tables the package builds itself keep their fresh
    arrays, see _own). Every row is checked in one vectorized pass:
    nu_hat and a_tilde must be finite and r_squared in [0, 1] or NaN.
    """

    name: np.ndarray
    window_start: np.ndarray
    window_end: np.ndarray
    nu_hat: np.ndarray
    a_tilde: np.ndarray
    r_squared: np.ndarray
    n_obs: np.ndarray
    slope_stderr: np.ndarray

    def __post_init__(self, copy: bool | None = True) -> None:
        _store_columns(self, _SIGNAL_COLUMNS, "signals", copy)
        nu, a, r2 = self.nu_hat, self.a_tilde, self.r_squared
        bad = np.flatnonzero(~(np.isfinite(nu) & np.isfinite(a)))
        if bad.size:
            i = bad[0]
            raise ValidationError(f"nu_hat, a_tilde must be finite: {float(nu[i])}, {float(a[i])}")
        bad = np.flatnonzero(~((r2 >= 0.0) & (r2 <= 1.0) | np.isnan(r2)))
        if bad.size:
            raise ValidationError(f"r_squared out of [0, 1]: {float(r2[bad[0]])}")

    def __len__(self) -> int:
        return len(self.nu_hat)

    @classmethod
    def _own(cls, *columns) -> Signals:
        """The table of columns the package has just built and hands over:
        checked like any table, but each column that has its dtype is
        kept and made read-only, not copied."""
        table = object.__new__(cls)
        for label, values in zip(_SIGNAL_COLUMNS, columns, strict=True):
            object.__setattr__(table, label, values)
        table.__post_init__(copy=None)
        return table

    @classmethod
    def concat(cls, tables: Iterable[Signals]) -> Signals:
        """One table of the rows of tables, in turn (no tables: no rows)."""
        tables = list(tables)
        return cls._own(*(np.concatenate([np.empty(0, dtype)] + [getattr(t, c) for t in tables])
                          for c, dtype in _SIGNAL_COLUMNS.items()))

    def take(self, rows) -> Signals:
        """The table of the rows that rows (indices, a mask or a slice) selects."""
        return Signals._own(*(getattr(self, c)[rows] for c in _SIGNAL_COLUMNS))

    def by_name(self) -> dict[str, np.ndarray]:
        """Each name's row indices, in table order; the names in sorted
        order. One stable sort of the name column."""
        order = np.argsort(self.name, kind="stable")
        names = self.name[order]
        cuts = np.flatnonzero(names[1:] != names[:-1]) + 1
        firsts = names[np.append(0, cuts)].tolist() if len(self) else []
        return dict(zip(firsts, np.split(order, cuts)))


@dataclass(frozen=True)
class SpreadModelConfig:
    """Spread normalization: recovery rate and CDS maturity (years).

    The normalization b = 1e4 * (1 - R) / T is always derived, never
    stored. R = 1 (full recovery, b = 0) is admitted as a degenerate
    case: every spread is then 0 bps.
    """

    recovery_rate: float = 0.4
    maturity: float = 5.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.recovery_rate <= 1.0):
            raise ValidationError(f"recovery_rate must be in [0, 1], got {self.recovery_rate}")
        if not (self.maturity > 0):
            raise ValidationError(f"maturity must be > 0, got {self.maturity}")

    @property
    def b(self) -> float:
        """Spread per unit default probability, in bps."""
        return 1e4 * (1.0 - self.recovery_rate) / self.maturity


def synth_spread(params: ModelParams, cfg: SpreadModelConfig, s0: float) -> float:
    """Model-consistent CDS spread (bps) at price s0 in the healthy regime.

    b * P with P the asymptotic healthy-to-distressed probability. The
    linearized spread relation assumes a small default probability, so
    s0 <= S_star is rejected. This is the scalar reference for the
    whole-universe pricing in :func:`tanhdrift.universe.generate_universe`.
    """
    if not (s0 > params.s_star):
        raise ValidationError(
            f"synth_spread needs the healthy regime: s0={s0} <= S_star={params.s_star}"
        )
    p = default_prob_asymptotic(params, s0, Direction.HEALTHY_TO_DISTRESSED).value
    return cfg.b * p


def _fits(
    batch: Sequence[SpreadSeries], starts: Sequence[np.ndarray], w: int
) -> tuple[Signals, np.ndarray]:
    """OLS of ln(spread) on ln(price) over the w observations from each
    index in starts[i] of batch[i], every window of every series at once:
    the table of the fitted windows, in batch and then start order, and
    how many windows of each series it holds.

    The series are concatenated, and each start is offset into the
    concatenation. Every reduction runs along one window, so a window's
    numbers do not depend on the others in the pass.

    Windows with a log-price sample std below 1e-10 have no slope and
    get no row; so do one-observation windows, whose sample std is
    undefined. A window of constant spreads fits slope 0 with r_squared
    1 and stderr 0. Every other window gets what scipy.stats.linregress
    gives for it, bit for bit: its moments are np.cov(x, y, bias=1),
    centred rows times their own transpose, scaled by 1/w.
    """
    sizes = np.array([len(s) for s in batch], dtype=np.intp)
    owner = np.repeat(np.arange(len(batch)), [len(s) for s in starts])
    first = np.concatenate([np.asarray(s, dtype=np.intp) for s in starts])
    idx = (first + (np.cumsum(sizes) - sizes)[owner])[:, None] + np.arange(w)
    x, y = (np.log(np.concatenate([getattr(s, c) for s in batch])) for c in ("price", "spread"))
    xy = np.stack([x[idx], y[idx]], axis=1)
    keep = np.std(xy[:, 0], axis=1, ddof=1) >= 1e-10 if w > 1 else np.zeros(len(idx), bool)
    first, xy, owner = idx[keep, 0], xy[keep], owner[keep]
    mean = xy.mean(axis=2)
    d = xy - mean[:, :, None]
    cov = d @ d.transpose(0, 2, 1) * (1.0 / w)
    ssxm, ssxym, ssym = cov[:, 0, 0], cov[:, 0, 1], cov[:, 1, 1]
    flat = np.ptp(xy[:, 1], axis=1) == 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
        slope = np.where(flat, 0.0, ssxym / ssxm)
        # Squared in Python, as linregress squares its scalar r: libm pow
        # can differ from r * r in the last bit.
        r2 = np.where(flat, 1.0, [v**2 for v in r.tolist()])
        stderr = np.sqrt((1.0 - r2) * ssym / ssxm / (w - 2)) if w > 2 else np.zeros_like(r2)
    intercept = np.where(flat, xy[:, 1, 0], mean[:, 1] - slope * mean[:, 0])
    names = np.array([s.name for s in batch], dtype=object)
    dates = np.concatenate([s.dates for s in batch])
    table = Signals._own(names[owner], dates[first], dates[first + (w - 1)], -slope / 2.0,
                         intercept, np.minimum(r2, 1.0), np.full(len(first), w), stderr)
    return table, np.bincount(owner, minlength=len(batch))


def extract_nu(
    series: SpreadSeries,
    window_start: dt.date,
    window_end: dt.date,
    min_window: int = MIN_WINDOW,
) -> Signals:
    """OLS of ln(spread) on ln(price) over [window_start, window_end]: one row.

    nu_hat = -slope / 2, a_tilde = intercept; r_squared and the slope
    standard error are kept as fit diagnostics. Raises InsufficientData
    below min_window observations (or with none at all) and
    DegeneratePrices when the log-price variation is too small to
    identify a slope.
    """
    lo = int(np.searchsorted(series.dates, np.datetime64(window_start, "D")))
    n = int(np.searchsorted(series.dates, np.datetime64(window_end, "D"), side="right")) - lo
    need = max(min_window, 1)
    if n < need:
        raise InsufficientData(f"{series.name}: {max(n, 0)} observations in window, need >= {need}")
    table, _ = _fits([series], [[lo]], n)
    if not len(table):
        raise DegeneratePrices(
            f"{series.name}: log-price sample std < 1e-10 or undefined, no slope"
        )
    return table


def rolling_extract(
    series: SpreadSeries,
    window_len: int,
    stride: int,
    min_window: int = MIN_WINDOW,
) -> Signals:
    """Sliding-window extraction: one row per window, in window order.

    Windows are window_len consecutive observations advanced by stride;
    a trailing partial window is not emitted. Windows that fail (fewer
    than min_window observations, or degenerate prices) are skipped,
    with one warning per name giving their count and the reason; if no
    window succeeds, EmptyResult is raised.
    """
    table, errors = extract_universe([(series.name, series)], window_len, stride, min_window)
    if errors:
        raise EmptyResult(errors[0][1])
    return table


def extract_universe(
    sources: Iterable[tuple[str, str | Path | SpreadSeries]],
    window_len: int,
    stride: int,
    min_window: int = MIN_WINDOW,
) -> tuple[Signals, list[tuple[str, str]]]:
    """rolling_extract over many names: sources are (name, spread CSV
    path or SpreadSeries) pairs, read in order.

    Returns one table of the rows of every name, in name order and each
    name's rows in window order, and (name, reason) for each name that
    could not be read or has no usable window, in source order. The skip
    warnings are those of rolling_extract, in source order. window_len
    and stride are checked before any file is read.

    A name is read when its turn comes; its windows join the pending
    pass, which is fitted whenever it holds _PASS_WINDOWS windows, and
    once more at the end. Only the fitted columns and a count per name
    outlive a pass.
    """
    if window_len < 1 or stride < 1:
        raise ValidationError(f"window_len and stride must be >= 1, got {window_len}, {stride}")
    short = window_len < min_window
    outcomes: list[list] = []  # per source: name, windows, windows fitted, load error
    tables: list[Signals] = []
    pending: list[tuple[SpreadSeries, np.ndarray, list]] = []  # series, starts, its outcome

    def fit_pass() -> None:
        table, counts = _fits([p[0] for p in pending], [p[1] for p in pending], window_len)
        tables.append(table)
        for (_, _, outcome), n in zip(pending, counts.tolist()):
            outcome[2] += n
        pending.clear()

    room = _PASS_WINDOWS
    for name, source in sources:
        try:
            series = (source if isinstance(source, SpreadSeries)
                      else load_spread_series(source, name=name))
        except (DataError, ValidationError) as exc:
            outcomes.append([name, 0, 0, str(exc)])
            continue
        todo = np.arange(0, len(series) - window_len + 1, stride)
        outcomes.append(outcome := [name, len(todo), 0, None])
        while len(todo) and not short:
            chunk, todo = todo[:room], todo[room:]
            pending.append((series, chunk, outcome))
            room -= len(chunk)
            if not room:
                fit_pass()
                room = _PASS_WINDOWS
    if pending:
        fit_pass()

    errors = []
    for name, windows, fitted, error in outcomes:
        if error is not None:
            errors.append((name, error))
            continue
        if fitted < windows:
            reason = (f"{window_len} < {min_window} observations" if short
                      else "log-price sample std < 1e-10 or undefined, no slope")
            log.warning("%s: %d of %d windows skipped: %s",
                        name, windows - fitted, windows, reason)
        if not fitted:
            errors.append((name, f"{name}: no window produced a usable fit"))
    table = Signals.concat(tables)
    return table.take(np.argsort(table.name, kind="stable")), errors


def implied_s_star(nu_hat: float, a_tilde: float, cfg: SpreadModelConfig) -> float:
    """Threshold price implied by a fit, given the normalization (R, T).

    Inverts a_tilde = 2 nu ln(S_star) + ln(b). Only meaningful when the
    caller pins down b; undefined for nu_hat ~ 0 or b = 0.
    """
    if cfg.b <= 0:
        raise ValidationError("implied S_star undefined for b = 0 (recovery_rate = 1)")
    if abs(nu_hat) < 1e-12:
        raise ValidationError(f"implied S_star undefined for nu_hat ~ 0 (got {nu_hat})")
    return math.exp((a_tilde - math.log(cfg.b)) / (2.0 * nu_hat))


# ---------------------------------------------------------------------------
# CSV interfaces

_SPREAD_HEADER = ["date", "price", "spread_bps"]
_SIGNAL_HEADER = ["name", "window_start", "window_end", "nu_hat", "a_tilde", "r_squared", "n_obs"]


def _c_float(text: str) -> float:
    """float(text) as numpy's C parser reads it: ASCII only, no
    underscores, surrounding whitespace allowed."""
    core = text.strip()
    if "_" in core or not core.isascii():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


# How a field of each column type is read: float columns by numpy's C
# tokenizer (and _c_float when an error is located), the rest in bulk.
# Dates go through dt.date, never numpy's looser date parser.
_PARSE = {float: _c_float, int: int, str: str, dt.date: dt.date.fromisoformat}


def _read_csv(
    path: Path,
    header: list[str],
    dtypes: Sequence[type],
    build: Callable[..., object] | None = None,
):
    """The columns of a CSV whose header is exactly header, or
    build(*columns) if build is given.

    dtypes gives each column's type: float, int, str or dt.date (ISO).
    The body is read by one numpy.loadtxt call, which parses the float
    columns in C into float64 arrays; every other column is a list,
    converted in bulk. build makes the loader's result from the columns
    and raises at the first row it rejects. Blank lines are skipped and
    every other row must have the header's field count. A file that
    cannot be opened or decoded, another header, a malformed row, a
    wrong field count, a field its type rejects and a row build rejects
    each raise DataError naming the path (and path:lineno for a row, see
    _raise_first_error).
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        try:
            got = next(csv.reader(fh), None)
        except (UnicodeDecodeError, csv.Error) as exc:
            _raise_first_error(path, header, dtypes, build, exc)
        if got != header:
            raise DataError(f"{path}: expected header {','.join(header)}, got {got}")
        try:
            _check_field_limit(path)
            # loadtxt warns when it reads no row, so it starts at the
            # first line that is not blank, if there is one.
            first = next((line for line in fh if line.strip("\r\n")), None)
            if first is None:
                columns = [np.empty(0) if t is float else [] for t in dtypes]
            else:
                table = np.loadtxt(
                    itertools.chain([first], fh), delimiter=",", quotechar='"', comments=None,
                    dtype=[(h, "f8" if t is float else "O") for h, t in zip(header, dtypes)],
                    ndmin=1,
                )
                columns = [np.array(table[h]) if t is float
                           else list(map(_PARSE[t], table[h].tolist()))
                           for h, t in zip(header, dtypes)]
                del table  # its field strings, before build runs
            return build(*columns) if build is not None else columns
        except (ValueError, OverflowError, TanhDriftError, csv.Error) as exc:
            _raise_first_error(path, header, dtypes, build, exc)


def _check_field_limit(path: Path) -> None:
    """Raise csv.Error if a field of the file is longer than csv's field
    limit, which loadtxt does not enforce.

    Such a field needs a file and a line longer than the limit, or a
    quoted field that spans lines; only then is the file scanned with
    csv.reader.
    """
    limit = csv.field_size_limit()
    if os.path.getsize(path) <= limit:
        return
    with open(path, "rb") as fh:
        data = fh.read()
    if b'"' in data or max(map(len, data.split(b"\n"))) > limit:
        with open(path, newline="") as fh:
            collections.deque(csv.reader(fh), maxlen=0)


def _raise_first_error(
    path: Path,
    header: list[str],
    dtypes: Sequence[type],
    build: Callable[..., object] | None,
    exc: Exception,
) -> NoReturn:
    """Raise the first error of a CSV that _read_csv rejected, row by row.

    Re-reads path with csv.reader and stops at the first row that cannot
    be read, has the wrong field count, holds a field its column type
    rejects, or that build rejects as a one-row table; build sees the
    rows one at a time, in file order. That error names
    path:lineno and is a DataError, of its own type if it is one. A
    decoding error names the path only: text is decoded a block at a
    time, so no line number fits. If no row fails, exc is raised as a
    DataError. Returns no data.
    """
    parse = [_PARSE[t] for t in dtypes]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            next(reader, None)
            for fields in reader:
                if not fields:
                    continue
                if len(fields) != len(header):
                    raise csv.Error(f"expected {len(header)} fields, got {len(fields)}")
                values = [read(text) for read, text in zip(parse, fields)]
                if build is not None:
                    build(*[np.array([v]) if t is float else [v] for t, v in zip(dtypes, values)])
        except UnicodeDecodeError as err:
            raise DataError(f"{path}: {err}") from err
        except (ValueError, OverflowError, TanhDriftError, csv.Error) as err:
            cls = type(err) if isinstance(err, DataError) else DataError
            raise cls(f"{path}:{reader.line_num}: {err}") from err
    raise DataError(f"{path}: {exc}") from exc


def load_spread_series(path, name: str | None = None) -> SpreadSeries:
    """Read a per-name CSV with header date,price,spread_bps (ISO dates).

    A price or spread that is not finite and > 0 (NonPositiveValue), or
    a date not after the previous row's, is a DataError at its path:line.
    """
    path = Path(path)
    name = name if name is not None else path.stem
    last = np.empty(0, dtype="M8[D]")  # the last date of the rows built so far

    def build(dates, price, spread):
        # The reader passes the whole file, or one row at a time when it
        # locates an error: the date order is checked across the calls.
        nonlocal last
        days = _days(dates)
        _require_increasing(name, np.concatenate([last, days[:1]]))
        series = SpreadSeries(name, days, price, spread)
        last = days[-1:]
        return series

    series = _read_csv(path, _SPREAD_HEADER, (dt.date, float, float), build)
    if not len(series):
        raise DataError(f"{path}: no observations")
    return series


# Rows of signals.csv formatted per write: the text of a whole universe's
# rows is never held at once.
_WRITE_ROWS = 1024


def write_signals_csv(table: Signals, path) -> None:
    """Write the rows of table, in table order, as
    name,window_start,window_end,nu_hat,a_tilde,r_squared,n_obs."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_SIGNAL_HEADER) + "\n")
        for lo in range(0, len(table), _WRITE_ROWS):
            rows = slice(lo, lo + _WRITE_ROWS)
            columns = (table.name[rows], np.datetime_as_string(table.window_start[rows]),
                       np.datetime_as_string(table.window_end[rows]), table.nu_hat[rows],
                       table.a_tilde[rows], table.r_squared[rows], table.n_obs[rows])
            fh.write("".join([f"{name},{s},{e},{nu!r},{a!r},{q!r},{n}\n"
                              for name, s, e, nu, a, q, n in zip(*(c.tolist() for c in columns))]))


def _signal_table(names, starts, ends, *fits) -> Signals:
    """The rows of a signals CSV as one table, in file order (stderr not kept)."""
    return Signals._own(names, _days(starts), _days(ends), *fits, np.full(len(names), math.nan))


def load_signals_csv(path) -> Signals:
    """Read a signals CSV back into one table, its rows in file order."""
    path = Path(path)
    table = _read_csv(path, _SIGNAL_HEADER, (str, dt.date, dt.date, float, float, float, int),
                      _signal_table)
    if not len(table):
        raise EmptyResult(f"{path}: no signal records")
    return table
