"""Cross-sectional dollar-neutral decile strategy and backtest accounting.

Ranks a universe by extracted nu_hat, goes long the top decile and
short the bottom decile with equal weights (+-1/(2k), k = floor(N/10)),
holds between rebalances, and reports daily returns, annualized Sharpe
(sqrt(252)), and average one-sided turnover. Transaction costs are not
modeled; turnover is reported so cost assumptions can be applied
externally.

A name's prices are a PriceSeries, the (datetime64[D] dates, prices)
arrays of universe.load_price_series. The signals of all names are one
cds.Signals table, in any row order; the backtest groups it by name with
one stable sort of its name column.

The backtest keeps its books as arrays on a days x names price panel,
its names in name order: rank_deciles turns each rebalance's row of
scores into a row of weights, and the book held between rebalances is
its columns, in name order, and their weights. Each day's return adds
the names' terms in that order, one at a time.

No lookahead by construction: weights set on a rebalance date use only
signals stamped window_end <= that date and prices up to it, and earn
returns only from the following trading day.

As-of semantics. A name's signal on date d is, among its rows with
window_end <= d, the one with the latest (window_end, window_start);
of a name's rows with equal keys the first in table order wins. Its
realized variance (rank_by "mu_tilde") uses the name's price days in
[window_start, window_end] and needs at least 3 of them. A name enters
the ranking on d only if it has a price on d. Of duplicate price dates
the last price counts.
"""

from __future__ import annotations

import datetime as dt
import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .cds import Signals, _days
from .errors import (
    DataError,
    NoOverlap,
    TooFewNames,
    TooFewPriceDays,
    UniverseTooSmall,
    ValidationError,
)

__all__ = [
    "PortfolioSnapshot",
    "RebalanceSchedule",
    "BacktestReport",
    "rank_deciles",
    "backtest",
    "signal_quality",
]

PriceSeries = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class PortfolioSnapshot:
    """Signed weights on one date; dollar-neutral and unit-gross when held."""

    date: dt.date
    weights: dict[str, float]

    @property
    def gross(self) -> float:
        return math.fsum(abs(w) for w in self.weights.values())

    @property
    def net(self) -> float:
        return math.fsum(self.weights.values())


@dataclass(frozen=True)
class RebalanceSchedule:
    """Rebalance every `every` trading days from `start` (or the first
    trading day)."""

    every: int = 21
    start: dt.date | None = None

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValidationError(f"every must be >= 1, got {self.every}")

    def resolve(self, trading_days: list[dt.date]) -> list[dt.date]:
        anchor = self.start if self.start is not None else trading_days[0]
        if anchor > trading_days[-1]:
            raise ValidationError(f"schedule start {anchor} is after the last trading day")
        eligible = [d for d in trading_days if d >= anchor]
        return eligible[:: self.every]


@dataclass
class BacktestReport:
    """Backtest accounting output."""

    daily_returns: list[tuple[dt.date, float]]
    sharpe_annualized: float | None
    mean_return: float
    volatility: float
    n_days: int
    turnover_avg: float
    rebalances: list[PortfolioSnapshot] = field(default_factory=list)
    dropped: list[tuple[dt.date, str]] = field(default_factory=list)
    long_leg_mean_daily: float | None = None
    short_leg_mean_daily: float | None = None

    def to_dict(self) -> dict:
        return {
            "daily_returns": [[d.isoformat(), r] for d, r in self.daily_returns],
            "sharpe_annualized": self.sharpe_annualized,
            "mean_return": self.mean_return,
            "volatility": self.volatility,
            "n_days": self.n_days,
            "turnover_avg": self.turnover_avg,
            "n_rebalances": len(self.rebalances),
            "dropped": [[d.isoformat(), n] for d, n in self.dropped],
            "long_leg_mean_daily": self.long_leg_mean_daily,
            "short_leg_mean_daily": self.short_leg_mean_daily,
        }


def rank_deciles(scores: np.ndarray) -> np.ndarray:
    """Equal-weight top-decile long / bottom-decile short weights.

    scores is one row of names; the weights come back in the same
    order. Names are sorted by score, descending, with one stable sort,
    so ties keep input order; k = floor(N/10) names per side at
    +-1/(2k), 0.0 for the rest. Requires at least 10 names.
    """
    n = len(scores)
    if n < 10:
        raise UniverseTooSmall(f"{n} names with valid signals, need >= 10")
    order = np.argsort(-scores, kind="stable")
    k = n // 10
    weights = np.zeros(n)
    weights[order[:k]] = 1.0 / (2.0 * k)
    weights[order[-k:]] = -1.0 / (2.0 * k)
    return weights


def _price_arrays(name: str, series: PriceSeries) -> tuple[np.ndarray, np.ndarray]:
    """One name's (days, prices), sorted by day; of duplicate dates the
    last price is kept."""
    days, prices = np.asarray(series[0], dtype="M8[D]"), np.asarray(series[1], dtype=float)
    if days.shape != prices.shape:
        raise ValidationError(f"{name}: {days.size} dates but {prices.size} prices")
    bad = np.flatnonzero(~(np.isfinite(prices) & (prices > 0)))
    if bad.size:
        raise ValidationError(f"{name}: price must be finite and > 0, "
                              f"got {float(prices[bad[0]])} on {days[bad[0]]}")
    order = np.argsort(days, kind="stable")
    days, prices = days[order], prices[order]
    last = np.ones(len(days), dtype=bool)
    last[:-1] = days[1:] != days[:-1]
    return days[last], prices[last]


def _signal_arrays(
    table: Signals, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """window_start, window_end and nu_hat of the given rows of table,
    which are in table order, sorted by (window_end, window_start); of
    equal keys the first row is kept."""
    starts, ends, nu = table.window_start[rows], table.window_end[rows], table.nu_hat[rows]
    order = np.lexsort((starts, ends))
    starts, ends, nu = starts[order], ends[order], nu[order]
    first = np.append(True, (ends[1:] != ends[:-1]) | (starts[1:] != starts[:-1]))
    return starts[first], ends[first], nu[first]


def _realized_vars(
    days: np.ndarray, prices: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Annualized variance of daily log returns over the price days in
    each [start, end], and whether that window holds the 3 price days
    it needs. Windows with the same day count share one np.var call."""
    lo = np.searchsorted(days, starts, side="left")
    n = np.searchsorted(days, ends, side="right") - lo
    ok = n >= 3
    var = np.zeros(len(starts))
    diffs = np.diff(np.log(prices))
    for m in np.unique(n[ok]):
        rows = np.flatnonzero(n == m)
        stack = diffs[lo[rows, None] + np.arange(m - 1)]
        var[rows] = np.var(stack, axis=1, ddof=1) * 252.0
    return var, ok


def backtest(
    prices: dict[str, PriceSeries],
    signals: Signals,
    schedule: RebalanceSchedule | None = None,
    rank_by: str = "nu",
) -> BacktestReport:
    """Run the decile strategy over daily prices with periodic rebalances.

    On each rebalance date the most recent signal per name (window_end
    <= date, no lookahead) and that day's price form the universe;
    rank_deciles sets the weights, held until the next rebalance. A
    held name missing a price is dropped at its last known price and
    flagged. Daily portfolio return is sum_i w_i (P_i,d / P_i,d-1 - 1).

    rank_by "nu" ranks on raw nu_hat; "mu_tilde" ranks on
    nu_hat * sigma_hat**2 with sigma_hat the realized annualized
    volatility over the signal's own window (names without enough price
    history for it are excluded that day).

    If the universe never reaches 10 eligible names: no signals at all
    runs a zero-weight backtest, signals that never align with prices
    raise NoOverlap, signals that align only where their windows lack
    the price days for realized variance raise TooFewPriceDays, and a
    universe capped below 10 raises UniverseTooSmall. Rebalance dates
    with fewer than 10 eligible names inside an otherwise viable
    backtest hold no positions.
    """
    if rank_by not in ("nu", "mu_tilde"):
        raise ValidationError(f"rank_by must be 'nu' or 'mu_tilde', got {rank_by!r}")
    if not prices:
        raise DataError("no price series supplied")
    arrays = {name: _price_arrays(name, series) for name, series in prices.items()}
    dated = [days for days, _ in arrays.values() if days.size]
    if not dated:
        raise DataError("price series contain no dates")
    # The union of all price days, marked on the span of days: cheaper in
    # time and memory than np.unique over every name's days at once.
    lo = min(days[0] for days in dated)
    seen = np.zeros((max(days[-1] for days in dated) - lo).astype(int) + 1, dtype=bool)
    for days in dated:
        seen[(days - lo).astype(int)] = True
    all_days = lo + np.flatnonzero(seen)
    trading_days = all_days.tolist()
    schedule = schedule or RebalanceSchedule()
    rebalance_dates = schedule.resolve(trading_days)
    reb_days = _days(rebalance_dates)
    reb_rows = np.searchsorted(all_days, reb_days)

    # Days x names price panel (NaN where a name has no price) over the
    # names that have both prices and signals, in name order.
    groups = signals.by_name()
    names = [n for n in groups if n in arrays]
    panel = np.full((len(all_days), len(names)), np.nan)
    eligible = np.zeros((len(reb_days), len(names)), dtype=bool)
    scores = np.zeros((len(reb_days), len(names)))
    aligned = False
    for j, name in enumerate(names):
        days, px = arrays[name]
        panel[np.searchsorted(all_days, days), j] = px
        starts, ends, nu = _signal_arrays(signals, groups[name])
        latest = np.searchsorted(ends, reb_days, side="right") - 1
        ok = (latest >= 0) & ~np.isnan(panel[reb_rows, j])
        aligned |= bool(ok.any())
        scores[:, j] = nu[latest]
        if rank_by == "mu_tilde":
            var, has_var = _realized_vars(days, px, starts, ends)
            ok &= has_var[latest]
            scores[:, j] *= var[latest]
        eligible[:, j] = ok

    peak = int(np.count_nonzero(eligible, axis=1).max())
    if len(signals):
        if peak == 0 and aligned:
            raise TooFewPriceDays(
                "signals and prices align, but no signal window holds the 3 price days "
                "realized variance needs"
            )
        if peak == 0:
            raise NoOverlap("signals and prices never align on any rebalance date")
        if peak < 10:
            raise UniverseTooSmall(f"at most {peak} names ever eligible, need >= 10")

    # Each rebalance's book: the held columns, in name order, and their
    # weights. A date with fewer than 10 eligible names holds nothing.
    rebalances: list[PortfolioSnapshot] = []
    books: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for r, (d, row) in enumerate(zip(rebalance_dates, reb_rows.tolist())):
        cols = np.flatnonzero(eligible[r])
        w = rank_deciles(scores[r, cols]) if cols.size >= 10 else np.zeros(0)
        ranked = [names[j] for j in cols[: w.size].tolist()]
        rebalances.append(PortfolioSnapshot(date=d, weights=dict(zip(ranked, w.tolist()))))
        held = np.flatnonzero(w)
        books[row] = (cols[held], w[held])

    daily: list[tuple[dt.date, float]] = []
    long_rets: list[float] = []
    short_rets: list[float] = []
    turnovers: list[float] = []
    dropped: list[tuple[dt.date, str]] = []

    def legs(weights: np.ndarray) -> list[tuple[list[float], np.ndarray]]:
        """Each leg a book holds: its list of daily mean returns and its
        column mask."""
        sides = ((long_rets, weights > 0), (short_rets, weights < 0))
        return [(leg, side) for leg, side in sides if side.any()]

    cols, weights, open_legs = np.zeros(0, dtype=np.intp), np.zeros(0), []
    first = int(reb_rows[0])
    for i in range(first, len(trading_days)):
        if i > first:
            day = trading_days[i]
            rets = panel[i, cols] / panel[i - 1, cols] - 1.0
            gone = np.isnan(rets)
            if gone.any():
                dropped += [(day, names[j]) for j in cols[gone].tolist()]
                cols, weights, rets = cols[~gone], weights[~gone], rets[~gone]
                open_legs = legs(weights)
            # Added one name at a time, in name order, onto 0.0: the
            # report's returns depend on the order of the additions, and
            # np.sum would add in pairs.
            daily.append((day, functools.reduce(operator.add, (weights * rets).tolist(), 0.0)))
            for leg, side in open_legs:
                # np.mean's own sum and division, without its per-call cost
                leg.append(float(np.add.reduce(rets[side]) / np.count_nonzero(side)))
        if i in books:
            change = np.zeros(len(names))
            change[books[i][0]] = books[i][1]
            change[cols] -= weights
            turnovers.append(0.5 * math.fsum(np.abs(change).tolist()))
            cols, weights = books[i]
            open_legs = legs(weights)

    returns = np.array([r for _, r in daily], dtype=float)
    mean = float(np.mean(returns)) if returns.size else 0.0
    vol = float(np.std(returns, ddof=1)) if returns.size > 1 else 0.0
    sharpe = mean / vol * math.sqrt(252.0) if vol > 0 else None
    return BacktestReport(
        daily_returns=daily,
        sharpe_annualized=sharpe,
        mean_return=mean,
        volatility=vol,
        n_days=len(daily),
        turnover_avg=float(np.mean(turnovers)) if turnovers else 0.0,
        rebalances=rebalances,
        dropped=dropped,
        long_leg_mean_daily=float(np.mean(long_rets)) if long_rets else None,
        short_leg_mean_daily=float(np.mean(short_rets)) if short_rets else None,
    )


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


def signal_quality(true_nu: dict[str, float], extracted: dict[str, float]) -> float:
    """Spearman rank correlation of extracted nu_hat against the truth.

    Computed over the names common to both inputs; needs at least 3.
    The Pearson correlation of average ranks, as scipy.stats.spearmanr
    computes it; NaN if an input is constant or holds a NaN.
    """
    common = sorted(set(true_nu) & set(extracted))
    if len(common) < 3:
        raise TooFewNames(f"{len(common)} common names, need >= 3")
    a = np.array([true_nu[n] for n in common], dtype=float)
    b = np.array([extracted[n] for n in common], dtype=float)
    if np.isnan(a).any() or np.isnan(b).any():
        return math.nan
    ranks = np.column_stack([_average_ranks(a), _average_ranks(b)])
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(np.corrcoef(ranks, rowvar=False)[1, 0])
