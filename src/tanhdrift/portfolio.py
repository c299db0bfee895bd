"""Cross-sectional dollar-neutral decile strategy and backtest accounting.

Ranks a universe by extracted nu_hat, goes long the top decile and
short the bottom decile with equal weights (+-1/(2k), k = floor(N/10)),
holds between rebalances, and reports daily returns, annualized Sharpe
(sqrt(252)), and average one-sided turnover. Transaction costs are not
modeled; turnover is reported so cost assumptions can be applied
externally.

No lookahead by construction: weights set on a rebalance date use only
signals stamped window_end <= that date and prices up to it, and earn
returns only from the following trading day.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np

from .cds import SignalRecord
from .errors import (
    DataError,
    NoOverlap,
    TooFewNames,
    UniverseTooSmall,
    ValidationError,
)

__all__ = [
    "UniverseSnapshot",
    "PortfolioSnapshot",
    "RebalanceSchedule",
    "BacktestReport",
    "rank_deciles",
    "backtest",
    "signal_quality",
]

PriceSeries = list[tuple[dt.date, float]]


@dataclass(frozen=True)
class UniverseSnapshot:
    """All names with a valid signal on one date: name -> (price, nu_hat)."""

    date: dt.date
    entries: dict[str, tuple[float, float]]

    def __post_init__(self) -> None:
        for name, (price, nu_hat) in self.entries.items():
            if not (price > 0):
                raise ValidationError(f"{name}: price must be > 0, got {price}")
            if not math.isfinite(nu_hat):
                raise ValidationError(f"{name}: nu_hat must be finite, got {nu_hat}")


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
    trading day), or on an explicit list of dates."""

    every: int = 21
    start: dt.date | None = None
    dates: tuple[dt.date, ...] | None = None

    def __post_init__(self) -> None:
        if self.dates is None and self.every < 1:
            raise ValidationError(f"every must be >= 1, got {self.every}")

    def resolve(self, trading_days: list[dt.date]) -> list[dt.date]:
        if self.dates is not None:
            days = set(trading_days)
            for d in self.dates:
                if d not in days:
                    raise ValidationError(f"rebalance date {d} is not a trading day in the data")
            return sorted(self.dates)
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


def rank_deciles(snapshot: UniverseSnapshot) -> PortfolioSnapshot:
    """Equal-weight top-decile long / bottom-decile short portfolio.

    Names sorted by nu_hat descending (ties broken by name, so the
    result is deterministic); k = floor(N/10) names per side at
    +-1/(2k). Requires at least 10 names.
    """
    n = len(snapshot.entries)
    if n < 10:
        raise UniverseTooSmall(f"{n} names with valid signals on {snapshot.date}, need >= 10")
    ordered = sorted(snapshot.entries.items(), key=lambda kv: (-kv[1][1], kv[0]))
    k = n // 10
    w = 1.0 / (2.0 * k)
    weights = {name: 0.0 for name, _ in ordered}
    for name, _ in ordered[:k]:
        weights[name] = w
    for name, _ in ordered[-k:]:
        weights[name] = -w
    return PortfolioSnapshot(date=snapshot.date, weights=dict(sorted(weights.items())))


def _latest_signal(records: list[SignalRecord], asof: dt.date) -> SignalRecord | None:
    best = None
    for r in records:
        if r.window_end <= asof and (
            best is None or (r.window_end, r.window_start) > (best.window_end, best.window_start)
        ):
            best = r
    return best


def _realized_var(series_map: dict[dt.date, float], start: dt.date, end: dt.date) -> float | None:
    days = sorted(d for d in series_map if start <= d <= end)
    if len(days) < 3:
        return None
    logs = np.log([series_map[d] for d in days])
    return float(np.var(np.diff(logs), ddof=1)) * 252.0


def backtest(
    prices: dict[str, PriceSeries],
    signals: dict[str, list[SignalRecord]],
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
    raise NoOverlap, and a universe capped below 10 raises
    UniverseTooSmall. Rebalance dates with fewer than 10 eligible names
    inside an otherwise viable backtest hold no positions.
    """
    if rank_by not in ("nu", "mu_tilde"):
        raise ValidationError(f"rank_by must be 'nu' or 'mu_tilde', got {rank_by!r}")
    if not prices:
        raise DataError("no price series supplied")
    price_map: dict[str, dict[dt.date, float]] = {}
    for name, series in prices.items():
        m = {d: p for d, p in series}
        for d, p in series:
            if not (p > 0):
                raise ValidationError(f"{name}: price must be > 0, got {p} on {d}")
        price_map[name] = m
    trading_days = sorted({d for series in prices.values() for d, _ in series})
    if not trading_days:
        raise DataError("price series contain no dates")
    schedule = schedule or RebalanceSchedule()
    rebalance_dates = schedule.resolve(trading_days)
    if not rebalance_dates:
        raise ValidationError("schedule yields no rebalance dates within the data range")
    total_records = sum(len(v) for v in signals.values())

    def eligible(asof: dt.date) -> dict[str, tuple[float, float]]:
        entries: dict[str, tuple[float, float]] = {}
        for name, records in signals.items():
            if name not in price_map or asof not in price_map[name]:
                continue
            rec = _latest_signal(records, asof)
            if rec is None:
                continue
            score = rec.nu_hat
            if rank_by == "mu_tilde":
                var = _realized_var(price_map[name], rec.window_start, rec.window_end)
                if var is None:
                    continue
                score = rec.nu_hat * var
            entries[name] = (price_map[name][asof], score)
        return entries

    # Each date's eligible set is built once: its snapshot serves the peak
    # check below and the rebalance in the main loop.
    snapshots: dict[dt.date, PortfolioSnapshot] = {}
    peak = 0
    for d in rebalance_dates:
        entries = eligible(d)
        peak = max(peak, len(entries))
        if len(entries) >= 10:
            snapshots[d] = rank_deciles(UniverseSnapshot(date=d, entries=entries))
        else:
            snapshots[d] = PortfolioSnapshot(date=d, weights={})
    if total_records > 0:
        if peak == 0:
            raise NoOverlap("signals and prices never align on any rebalance date")
        if peak < 10:
            raise UniverseTooSmall(f"at most {peak} names ever eligible, need >= 10")

    first = rebalance_dates[0]
    weights: dict[str, float] = {}
    last_price: dict[str, float] = {}
    daily: list[tuple[dt.date, float]] = []
    long_rets: list[float] = []
    short_rets: list[float] = []
    turnovers: list[float] = []
    rebalances: list[PortfolioSnapshot] = []
    dropped: list[tuple[dt.date, str]] = []

    for day in trading_days:
        if day > first:
            ret = 0.0
            for name in list(weights):
                w = weights[name]
                if w == 0.0:
                    continue
                p_now = price_map.get(name, {}).get(day)
                if p_now is None:
                    dropped.append((day, name))
                    del weights[name]
                    continue
                ret += w * (p_now / last_price[name] - 1.0)
            daily.append((day, ret))
            longs = [
                price_map[n][day] / last_price[n] - 1.0
                for n, w in weights.items()
                if w > 0 and day in price_map.get(n, {})
            ]
            shorts = [
                price_map[n][day] / last_price[n] - 1.0
                for n, w in weights.items()
                if w < 0 and day in price_map.get(n, {})
            ]
            if longs:
                long_rets.append(float(np.mean(longs)))
            if shorts:
                short_rets.append(float(np.mean(shorts)))
        for name, m in price_map.items():
            if day in m:
                last_price[name] = m[day]
        if day in snapshots:
            snap = snapshots[day]
            new_weights = {n: w for n, w in snap.weights.items() if w != 0.0}
            union = set(weights) | set(new_weights)
            turnovers.append(
                0.5 * math.fsum(abs(new_weights.get(n, 0.0) - weights.get(n, 0.0)) for n in union)
            )
            rebalances.append(snap)
            weights = new_weights

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
