"""Independent closed-form oracles shared by the test modules.

The transition density of the tanh-drift diffusion is an equal-variance
two-Gaussian mixture: splitting cosh(nu (x - x_star)) into its two
exponentials and completing the square in each term gives

    P(x, x0; t) = w_up * N(x; x0 + m t, s2 t) + w_dn * N(x; x0 - m t, s2 t)

with m = nu * sigma**2, s2 = sigma**2, and logistic weights
w_up = 1 / (1 + exp(-2 nu (x0 - x_star))), w_dn = 1 - w_up. This form
is derived by hand, is evaluated through scipy.stats.norm rather than
any package code, and makes normalization (w_up + w_dn = 1) and
half-line integrals (mixture of normal CDFs) exact.

The finite-horizon probability the package computes from this mixture
is also checked against adaptive quadrature (scipy.integrate.quad) of
the package's density profile over a truncated half-line
(_finite_prob_quadrature), and its trapezoid normalization against the
quadrature over the whole truncated line (_quad_density). The
quadrature knows nothing of the mixture form.

regime_transition_prob_finite_reference is the scalar closed form that
model.regime_transition_probs_finite (an array kernel) replaced, kept
verbatim; step_normals_reference is the per-step Philox construction
that mc's one bit generator per run replaced. Both are the bit-for-bit
oracles of their replacements.

solve_fp_reference is the SuperLU Crank-Nicolson loop that
fokker_planck.solve_fp replaced; the prefactored LAPACK version is
checked against it. solve_fp_dgttrs_reference is that prefactored
version (one pivoted dgttrs solve per step), which the step on the
symmetrized operator (one dpttrs solve) replaced; solve_fp is checked
against it too, on both of its paths.

read_csv_reference and the five *_reference loaders are the row-wise
csv.reader loaders that the columnar reader (cds._read_csv on
numpy.loadtxt) replaced; the loaders are checked against them.

rank_deciles and UniverseSnapshot are the dict ranking that
portfolio.rank_deciles (one stable argsort over a score array) and the
backtest's weight panel replaced; backtest_reference ranks with them.

fits_reference and rolling_extract_reference are the per-name fit that
cds.extract_universe (every window of many names in one pass) replaced,
kept verbatim but for the name column of the table they return.

The package holds signals as one table of columns for any number of
names (cds.Signals) and prices as per-name (dates, prices) arrays. The
references keep the rows they were written for, one SignalRecord per
window in a list per name and one (dt.date, float) tuple per price;
as_rows turns the columns into those rows.
"""

import csv
import datetime as dt
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse import diags
from scipy.sparse.linalg import splu
from scipy.special import expit, ndtr
from scipy.stats import norm

from tanhdrift.cds import Signals, SpreadSeries
from tanhdrift.errors import (
    DataError,
    EmptyResult,
    NoOverlap,
    ToleranceError,
    UniverseTooSmall,
    ValidationError,
)
from tanhdrift.fokker_planck import DensityField, GridSpec, boundary_margin
from tanhdrift.model import (
    Direction,
    ModelParams,
    RegimeProbability,
    _log_cosh,
    _require_diffusive,
    _require_starting_side,
    _whole_steps,
    density_profile,
    drift,
)
from tanhdrift.portfolio import BacktestReport, PortfolioSnapshot, RebalanceSchedule


PriceSeries = list[tuple[dt.date, float]]


@dataclass(frozen=True)
class SignalRecord:
    """Extracted signal for one name over one window."""

    name: str
    window_start: dt.date
    window_end: dt.date
    nu_hat: float
    a_tilde: float
    r_squared: float
    n_obs: int
    slope_stderr: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.nu_hat) and math.isfinite(self.a_tilde)):
            raise ValidationError(f"nu_hat, a_tilde must be finite: {self.nu_hat}, {self.a_tilde}")
        if not (0.0 <= self.r_squared <= 1.0 or math.isnan(self.r_squared)):
            raise ValidationError(f"r_squared out of [0, 1]: {self.r_squared}")


def as_rows(value):
    """The references' rows of columns: a Signals table becomes a dict of
    each name's SignalRecords in table order, its names in the order of
    their first rows; a (dates, prices) pair becomes its (dt.date, float)
    tuples, and a dict of pairs the same dict of rows."""
    if isinstance(value, dict):
        return {key: as_rows(v) for key, v in value.items()}
    if isinstance(value, Signals):
        columns = (value.name, value.window_start, value.window_end, value.nu_hat,
                   value.a_tilde, value.r_squared, value.n_obs, value.slope_stderr)
        out: dict[str, list[SignalRecord]] = {}
        for rec in map(SignalRecord, *(c.tolist() for c in columns)):
            out.setdefault(rec.name, []).append(rec)
        return out
    dates, prices = value
    return list(zip(dates.tolist(), prices.tolist()))


def mixture_weights(nu: float, x0: float, x_star: float) -> tuple[float, float]:
    # Each weight from its own expit: 1 - expit(z) would cancel badly
    # when one weight is ~1e-8.
    z = 2.0 * nu * (x0 - x_star)
    return float(expit(z)), float(expit(-z))


def mixture_density(nu, sigma, x_star, x, x0, t):
    """Two-Gaussian-mixture evaluation of the transition density."""
    m = nu * sigma * sigma
    s = sigma * math.sqrt(t)
    w_up, w_dn = mixture_weights(nu, x0, x_star)
    return w_up * norm.pdf(x, loc=x0 + m * t, scale=s) + w_dn * norm.pdf(
        x, loc=x0 - m * t, scale=s
    )


def mixture_prob_below(nu, sigma, x_star, x0, t, cut) -> float:
    """P(X_t <= cut | X_0 = x0) from the mixture of normal CDFs."""
    m = nu * sigma * sigma
    s = sigma * math.sqrt(t)
    w_up, w_dn = mixture_weights(nu, x0, x_star)
    return float(
        w_up * norm.cdf(cut, loc=x0 + m * t, scale=s)
        + w_dn * norm.cdf(cut, loc=x0 - m * t, scale=s)
    )


def mixture_prob_above(nu, sigma, x_star, x0, t, cut) -> float:
    m = nu * sigma * sigma
    s = sigma * math.sqrt(t)
    w_up, w_dn = mixture_weights(nu, x0, x_star)
    return float(
        w_up * norm.sf(cut, loc=x0 + m * t, scale=s)
        + w_dn * norm.sf(cut, loc=x0 - m * t, scale=s)
    )


def logistic_switch_prob(nu, x0, x_star) -> float:
    """Asymptotic healthy-to-distressed probability, 1/(1 + e^{2 nu (x0 - x_star)})."""
    return float(expit(-2.0 * nu * (x0 - x_star)))


def cosh_ratio_density(params: ModelParams, x, x0: float, t: float):
    """The cosh-ratio form that density_profile evaluated before it summed
    the two mixture terms: exact in real arithmetic, but its log terms
    grow like (nu sigma sqrt(t))**2 and cancel."""
    x = np.asarray(x, dtype=float)
    sig2t = params.sigma * params.sigma * t
    z = params.nu * (x - params.x_star)
    z0 = params.nu * (x0 - params.x_star)
    log_p = (
        _log_cosh(z)
        - _log_cosh(z0)
        - (x - x0) ** 2 / (2.0 * sig2t)
        - params.mu_tilde * params.nu * t / 2.0
        - 0.5 * math.log(2.0 * math.pi * t)
        - math.log(params.sigma)
    )
    return np.exp(log_p)


# ---------------------------------------------------------------------------
# Quadrature of the package density: the finite-horizon probability and the
# normalization integral that the package computed this way before it used
# the mixture CDF and the trapezoid rule, kept as their oracle.


def _truncation_hull(params: ModelParams, x0: float, t: float) -> tuple[float, float]:
    # Envelope is a Gaussian drifting at most mu_tilde * t; 10 standard
    # deviations keeps truncated mass below 1e-20 relative.
    w = 10.0 * params.sigma * math.sqrt(t) + params.mu_tilde * t
    lo = min(x0, params.x_star) - w
    hi = max(x0, params.x_star) + w
    return lo, hi


def _quad_density(params: ModelParams, x0: float, t: float, a: float, b: float) -> float:
    pts = [
        p
        for p in (x0 - params.mu_tilde * t, x0, x0 + params.mu_tilde * t, params.x_star)
        if a < p < b
    ]
    val, _ = quad(
        lambda x: float(density_profile(params, x, x0, t)),
        a,
        b,
        points=sorted(set(pts)) or None,
        epsabs=1e-10,
        epsrel=1e-10,
        limit=200,
    )
    return val


def _finite_prob_quadrature(
    params: ModelParams, x0: float, horizon: float, direction: Direction
) -> float:
    """Half-line integral of the density, without the boundary shortcut."""
    lo, hi = _truncation_hull(params, x0, horizon)
    if direction is Direction.HEALTHY_TO_DISTRESSED:
        a, b = lo, params.x_star
    else:
        a, b = params.x_star, hi
    return _quad_density(params, x0, horizon, a, b)


# ---------------------------------------------------------------------------
# Scalar code that an array kernel or a reused generator replaced, kept
# verbatim as the bit-for-bit oracle of its replacement.


def regime_transition_prob_finite_reference(
    params: ModelParams, x0: float, horizon: float, direction: Direction
) -> RegimeProbability:
    """The finite-horizon probability one (x0, horizon) at a time."""
    _require_diffusive(params)
    if not (horizon > 0):
        raise ValidationError(f"horizon must be > 0, got {horizon}")
    _require_starting_side(x0, params.x_star, direction)
    if x0 == params.x_star:
        return RegimeProbability(0.5, direction, horizon)
    d = abs(x0 - params.x_star)  # the mirror image maps one direction onto the other
    drift_t = params.mu_tilde * horizon
    s = params.sigma * math.sqrt(horizon)
    lam = 2.0 * params.nu * d
    p = float(expit(lam) * ndtr(-(d + drift_t) / s) + expit(-lam) * ndtr((drift_t - d) / s))
    return RegimeProbability(min(max(p, 0.0), 1.0), direction, horizon)


def step_normals_reference(seed: int, step: int, n: int) -> np.ndarray:
    """Standard normals for one time step, from its own Philox substream."""
    return np.random.Generator(np.random.Philox(seed).jumped(step)).standard_normal(n)


def ols_fit(x, y) -> tuple[float, float]:
    """(intercept, slope) by explicit normal equations; used to cross-check
    the packaged regression with an independent code path."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[0]), float(coef[1])


def exact_log_default_prob(nu, s_star, prices):
    """ln P for the asymptotic default probability at each price, computed
    directly as -log1p((S/S_star)**(2 nu))."""
    prices = np.asarray(prices, dtype=float)
    return -np.log1p((prices / s_star) ** (2.0 * nu))


# ---------------------------------------------------------------------------
# Per-name extraction reference: one batched fit per name, as cds fitted
# before a pass spanned names.


def fits_reference(series: SpreadSeries, starts: Sequence[int], w: int) -> Signals:
    """OLS of ln(spread) on ln(price) over the w observations from each
    index in starts, all windows at once.

    Windows with a log-price sample std below 1e-10 have no slope and
    get no row; so do one-observation windows, whose sample std is
    undefined. A window of constant spreads fits slope 0 with r_squared
    1 and stderr 0. Every other window gets what scipy.stats.linregress
    gives for it, bit for bit: its moments are np.cov(x, y, bias=1),
    centred rows times their own transpose, scaled by 1/w.
    """
    idx = np.asarray(starts, dtype=np.intp)[:, None] + np.arange(w)
    xy = np.stack([np.log(series.price)[idx], np.log(series.spread)[idx]], axis=1)
    keep = np.std(xy[:, 0], axis=1, ddof=1) >= 1e-10 if w > 1 else np.zeros(len(idx), bool)
    first, xy = idx[keep, 0], xy[keep]
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
    return Signals([series.name] * len(first), series.dates[first],
                   series.dates[first + (w - 1)], -slope / 2.0, intercept, np.minimum(r2, 1.0),
                   np.full(len(first), w), stderr)


def rolling_extract_reference(
    series: SpreadSeries,
    window_len: int,
    stride: int,
    min_window: int = 15,
) -> Signals:
    """Sliding-window extraction: one row per window, in window order.

    Windows are window_len consecutive observations advanced by stride;
    a trailing partial window is not emitted. Windows that fail (fewer
    than min_window observations, or degenerate prices) are skipped,
    with one warning per name giving their count and the reason; if no
    window succeeds, EmptyResult is raised.
    """
    if window_len < 1 or stride < 1:
        raise ValidationError(f"window_len and stride must be >= 1, got {window_len}, {stride}")
    starts = range(0, len(series) - window_len + 1, stride)
    short = window_len < min_window
    table = fits_reference(series, [] if short else starts, window_len)
    if len(table) < len(starts):
        reason = (f"{window_len} < {min_window} observations" if short
                  else "log-price sample std < 1e-10 or undefined, no slope")
        logging.getLogger("tanhdrift.cds").warning(
            "%s: %d of %d windows skipped: %s",
            series.name, len(starts) - len(table), len(starts), reason)
    if not len(table):
        raise EmptyResult(f"{series.name}: no window produced a usable fit")
    return table


# ---------------------------------------------------------------------------
# Backtest reference: the record-scanning backtest that portfolio.backtest
# replaced, kept as the scalar oracle for its per-name array version.


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


def backtest_reference(
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


# Crank-Nicolson reference: the SuperLU loop that solve_fp ran before it
# factored with LAPACK dgttrf and dropped the right-hand-side build, kept
# verbatim as the oracle for the prefactored version.


def solve_fp_reference(
    params: ModelParams,
    x0: float,
    horizon: float,
    grid: GridSpec,
    ic_width: float | None = None,
) -> DensityField:
    """Evolve the mollified delta at x0 to time T on the given grid.

    Preconditions: x0 must sit inside the grid with margin
    5 sigma sqrt(T) + mu_tilde T on both sides (otherwise mass would
    leak past the zero boundaries beyond 1e-6), T must be an integer
    number of grid.dt steps, and the cell Peclet number
    mu_tilde * dx / sigma**2 must not exceed 1 (the centered advection
    stencil oscillates beyond that).

    After every step negatives (clipped Crank-Nicolson undershoot, at
    the 1e-12 scale) are clamped to zero and the trapezoidal mass is
    required to stay <= 1 + 1e-6.
    """
    if params.sigma == 0.0:
        raise ValidationError("sigma = 0 has no density to evolve (degenerate case)")
    if not (horizon > 0):
        raise ValidationError(f"horizon must be > 0, got {horizon}")
    n_whole = round(horizon / grid.dt)
    if n_whole < 1 or abs(n_whole * grid.dt - horizon) > 1e-9 * horizon:
        raise ValidationError(
            f"horizon/dt = {horizon / grid.dt} does not round to an integer step count"
        )
    margin = boundary_margin(params, horizon)
    if x0 - grid.x_min < margin or grid.x_max - x0 < margin:
        raise ValidationError(
            f"x0={x0} needs margin {margin:.6g} inside [{grid.x_min}, {grid.x_max}]; "
            "mass would leak past the boundaries"
        )
    dx = grid.dx
    peclet = params.mu_tilde * dx / (params.sigma * params.sigma)
    if peclet > 1.0:
        raise ValidationError(
            f"cell Peclet number {peclet:.3g} > 1: centered advection needs a finer grid"
        )

    x = grid.x
    w = 2.0 * dx if ic_width is None else float(ic_width)
    if not (w > 0):
        raise ValidationError(f"ic_width must be > 0, got {w}")
    t_ic = w * w / (params.sigma * params.sigma)
    if t_ic > 0.5 * horizon:
        raise ValidationError(
            f"initial-condition width {w} diffuses for {t_ic:.3g} of the {horizon:.3g} horizon; "
            "use a finer grid"
        )
    n_steps = round((horizon - t_ic) / grid.dt)
    if n_steps < 1:
        raise ValidationError(f"dt={grid.dt} leaves no whole step in the horizon {horizon}")
    values = np.exp(-((x - x0) ** 2) / (2.0 * w * w))
    values[0] = 0.0
    values[-1] = 0.0
    values /= np.trapezoid(values, dx=dx)

    diff = 0.5 * params.sigma * params.sigma
    mu_face = np.asarray(drift(params, x[:-1] + 0.5 * dx))  # n_x - 1 faces

    # Interior rows i = 1..n_x-2; flux form
    # dP_i/dt = [D (P_{i+1} - 2 P_i + P_{i-1}) / dx
    #            - (mu_{i+1/2} (P_{i+1} + P_i) - mu_{i-1/2} (P_i + P_{i-1})) / 2] / dx
    lower = diff / dx**2 + mu_face[:-1] / (2.0 * dx)
    upper = diff / dx**2 - mu_face[1:] / (2.0 * dx)
    diag = -2.0 * diff / dx**2 - (mu_face[1:] - mu_face[:-1]) / (2.0 * dx)

    half_dt = 0.5 * grid.dt
    m = grid.n_x - 2
    a_minus = diags(
        [-half_dt * lower[1:], 1.0 - half_dt * diag, -half_dt * upper[:-1]],
        offsets=(-1, 0, 1),
        shape=(m, m),
        format="csc",
    )
    lu = splu(a_minus)
    p_low = half_dt * lower
    p_diag = 1.0 + half_dt * diag
    p_up = half_dt * upper

    u = values[1:-1].copy()
    rhs = np.empty(m, dtype=float)
    for _ in range(n_steps):
        np.multiply(p_diag, u, out=rhs)
        rhs[1:] += p_low[1:] * u[:-1]
        rhs[:-1] += p_up[:-1] * u[1:]
        u = lu.solve(rhs)
        np.maximum(u, 0.0, out=u)
        mass = u.sum() * dx  # full-grid trapezoid; boundary nodes are zero
        if mass > 1.0 + 1e-6:
            raise ToleranceError(f"mass grew to {mass} > 1 + 1e-6; scheme unstable here")

    values = np.zeros(grid.n_x, dtype=float)
    values[1:-1] = u
    return DensityField(grid=grid, values=values, time=horizon)


# The pivoted LAPACK loop that solve_fp ran before it stepped on the
# symmetrized operator with dpttrs, kept verbatim as the oracle for the
# symmetrized step and for the fallback that still runs it.


def solve_fp_dgttrs_reference(
    params: ModelParams,
    x0: float,
    horizon: float,
    grid: GridSpec,
    ic_width: float | None = None,
) -> DensityField:
    """Evolve the mollified delta at x0 to time T on the given grid.

    Preconditions: x0 must sit inside the grid with margin
    5 sigma sqrt(T) + mu_tilde T on both sides (otherwise mass would
    leak past the zero boundaries beyond 1e-6), T must be an integer
    number of grid.dt steps, the cell Peclet number
    mu_tilde * dx / sigma**2 must not exceed 1 (the centered advection
    stencil oscillates beyond that), and the mesh ratio
    sigma**2 dt / (2 dx**2) must not exceed 20 (past about 22 the clamp
    of barely damped grid-scale modes of the narrow start adds mass).

    After every step negatives (clipped Crank-Nicolson undershoot, at
    the 1e-12 scale) are clamped to zero and the trapezoidal mass is
    required to stay <= 1 + 1e-6.
    """
    _require_diffusive(params)
    _whole_steps(horizon, grid.dt)
    margin = boundary_margin(params, horizon)
    if x0 - grid.x_min < margin or grid.x_max - x0 < margin:
        raise ValidationError(
            f"x0={x0} needs margin {margin:.6g} inside [{grid.x_min}, {grid.x_max}]; "
            "mass would leak past the boundaries"
        )
    dx = grid.dx
    peclet = params.mu_tilde * dx / (params.sigma * params.sigma)
    if peclet > 1.0:
        raise ValidationError(
            f"cell Peclet number {peclet:.3g} > 1: centered advection needs a finer grid"
        )
    ratio = params.sigma * params.sigma * grid.dt / (2.0 * dx * dx)
    if ratio > 20.0:
        raise ValidationError(
            f"mesh ratio sigma**2 dt / (2 dx**2) = {ratio:.3g} > 20: the clamp of undamped "
            "grid-scale modes would add mass; use a smaller dt"
        )

    x = grid.x
    w = 2.0 * dx if ic_width is None else float(ic_width)
    if not (w > 0):
        raise ValidationError(f"ic_width must be > 0, got {w}")
    t_ic = w * w / (params.sigma * params.sigma)
    if t_ic > 0.5 * horizon:
        raise ValidationError(
            f"initial-condition width {w} diffuses for {t_ic:.3g} of the {horizon:.3g} horizon; "
            "use a finer grid"
        )
    n_steps = round((horizon - t_ic) / grid.dt)
    if n_steps < 1:
        raise ValidationError(f"dt={grid.dt} leaves no whole step in the horizon {horizon}")
    values = np.exp(-((x - x0) ** 2) / (2.0 * w * w))
    values[0] = 0.0
    values[-1] = 0.0
    values /= np.trapezoid(values, dx=dx)

    diff = 0.5 * params.sigma * params.sigma
    mu_face = np.asarray(drift(params, x[:-1] + 0.5 * dx))  # n_x - 1 faces

    # Interior rows i = 1..n_x-2; flux form
    # dP_i/dt = [D (P_{i+1} - 2 P_i + P_{i-1}) / dx
    #            - (mu_{i+1/2} (P_{i+1} + P_i) - mu_{i-1/2} (P_i + P_{i-1})) / 2] / dx
    lower = diff / dx**2 + mu_face[:-1] / (2.0 * dx)
    upper = diff / dx**2 - mu_face[1:] / (2.0 * dx)
    diag = -2.0 * diff / dx**2 - (mu_face[1:] - mu_face[:-1]) / (2.0 * dx)

    # Factor A/2 = I/2 - (dt/4) L once (see the module docstring). Under the
    # Peclet bound the off-diagonals of L are >= 0 and its columns sum to
    # zero, so A is strictly column diagonally dominant: no pivot is zero.
    quarter_dt = 0.25 * grid.dt
    dl, d, du, du2, ipiv, _ = dgttrf(
        -quarter_dt * lower[1:], 0.5 - quarter_dt * diag, -quarter_dt * upper[:-1]
    )

    u = values[1:-1].copy()
    peak_mass = -math.inf
    for _ in range(n_steps):
        y, _ = dgttrs(dl, d, du, du2, ipiv, u)
        np.subtract(y, u, out=y)
        np.maximum(y, 0.0, out=y)
        u = y
        mass = u.sum() * dx  # full-grid trapezoid; boundary nodes are zero
        if mass > 1.0 + 1e-6:
            raise ToleranceError(f"mass grew to {mass} > 1 + 1e-6; scheme unstable here")
        if mass > peak_mass:
            peak_mass = mass

    values = np.zeros(grid.n_x, dtype=float)
    values[1:-1] = u
    return DensityField(grid=grid, values=values, time=horizon, peak_mass=peak_mass)


def trading_dates_reference(start: dt.date, n: int) -> list[dt.date]:
    """n consecutive weekdays starting at the first weekday >= start: the
    day-by-day walk that universe.trading_dates replaced."""
    out: list[dt.date] = []
    d = start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return out


# Row-wise CSV loaders: csv.reader and one parse call per row, kept
# verbatim (renamed *_reference) as the oracle for the columnar reader.

_SPREAD_HEADER = ["date", "price", "spread_bps"]
_SIGNAL_HEADER = ["name", "window_start", "window_end", "nu_hat", "a_tilde", "r_squared", "n_obs"]
_MANIFEST_HEADER = ["name", "price_file", "spread_file"]
_TRUTH_HEADER = ["name", "nu", "sigma", "s_star", "s0"]
_PRICE_HEADER = ["date", "price"]


def read_csv_reference(path: Path, header: list[str], parse: Callable[[list[str]], object]) -> list:
    """parse(row) for each data row of a CSV whose header is exactly header.

    Blank lines are skipped and every other row must have the header's
    field count. A file that cannot be opened or decoded, another
    header, a malformed row, a wrong field count and a ValueError or
    ValidationError from parse each raise DataError naming the path (and
    path:lineno for a row).
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    out = []
    with fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, None)
            if got != header:
                raise DataError(f"{path}: expected header {','.join(header)}, got {got}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(
                        f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}"
                    )
                out.append(parse(row))
        except UnicodeDecodeError as exc:
            # Text is decoded a block at a time, so no line number fits.
            raise DataError(f"{path}: {exc}") from exc
        except (ValueError, ValidationError, csv.Error) as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    return out


def load_spread_series_reference(path, name: str | None = None) -> SpreadSeries:
    """Read a per-name CSV with header date,price,spread_bps (ISO dates)."""
    path = Path(path)
    rows = read_csv_reference(
        path, _SPREAD_HEADER, lambda r: (dt.date.fromisoformat(r[0]), float(r[1]), float(r[2]))
    )
    if not rows:
        raise DataError(f"{path}: no observations")
    dates, price, spread = zip(*rows)
    return SpreadSeries(name if name is not None else path.stem, dates, price, spread)


def load_signals_csv_reference(path) -> dict[str, list[SignalRecord]]:
    """Read a signals CSV back into per-name record lists (stderr not kept)."""
    path = Path(path)
    records = read_csv_reference(path, _SIGNAL_HEADER, lambda r: SignalRecord(
        r[0], dt.date.fromisoformat(r[1]), dt.date.fromisoformat(r[2]),
        float(r[3]), float(r[4]), float(r[5]), int(r[6]), slope_stderr=float("nan"),
    ))
    if not records:
        raise EmptyResult(f"{path}: no signal records")
    out: dict[str, list[SignalRecord]] = {}
    for rec in records:
        out.setdefault(rec.name, []).append(rec)
    return out


def load_manifest_reference(path) -> list[tuple[str, Path, Path]]:
    """Read manifest.csv; file paths are resolved relative to it."""
    path = Path(path)
    base = path.parent
    return read_csv_reference(path, _MANIFEST_HEADER, lambda r: (r[0], base / r[1], base / r[2]))


def load_price_series_reference(path) -> list[tuple[dt.date, float]]:
    """Read a per-name price CSV with header date,price (ISO dates)."""
    path = Path(path)
    out = read_csv_reference(
        path, _PRICE_HEADER, lambda r: (dt.date.fromisoformat(r[0]), float(r[1]))
    )
    if not out:
        raise DataError(f"{path}: no price rows")
    return out


def load_truth_reference(path) -> dict[str, float]:
    """Read truth.csv into name -> true nu."""
    path = Path(path)
    out = dict(read_csv_reference(path, _TRUTH_HEADER, lambda r: (r[0], float(r[1]))))
    if not out:
        raise DataError(f"{path}: no truth rows")
    return out
