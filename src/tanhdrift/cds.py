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
"""

from __future__ import annotations

import csv
import datetime as dt
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy.stats import linregress

from .errors import (
    DataError,
    DegeneratePrices,
    EmptyResult,
    InsufficientData,
    NonPositiveValue,
    ValidationError,
)
from .model import Direction, ModelParams, default_prob_asymptotic

__all__ = [
    "MIN_WINDOW",
    "SpreadObservation",
    "SpreadSeries",
    "SignalRecord",
    "SpreadModelConfig",
    "synth_spread",
    "extract_nu",
    "rolling_extract",
    "implied_s_star",
    "load_spread_series",
    "write_signals_csv",
    "load_signals_csv",
]

log = logging.getLogger(__name__)

# Below ~15 points the OLS slope noise dominates any signal; a calendar
# month of trading days minus holidays still clears this.
MIN_WINDOW = 15


@dataclass(frozen=True)
class SpreadObservation:
    """One (date, stock price, CDS spread in bps) observation."""

    date: dt.date
    price: float
    spread: float

    def __post_init__(self) -> None:
        if not (self.price > 0):
            raise NonPositiveValue(f"price must be > 0, got {self.price} on {self.date}")
        if not (self.spread > 0):
            raise NonPositiveValue(f"spread must be > 0, got {self.spread} on {self.date}")


@dataclass(frozen=True)
class SpreadSeries:
    """Date-ordered observations for one instrument."""

    name: str
    observations: tuple[SpreadObservation, ...]

    def __post_init__(self) -> None:
        obs = tuple(self.observations)
        object.__setattr__(self, "observations", obs)
        for a, b in zip(obs, obs[1:]):
            if a.date >= b.date:
                raise ValidationError(
                    f"{self.name}: observation dates must be strictly increasing "
                    f"({a.date} then {b.date})"
                )

    def __len__(self) -> int:
        return len(self.observations)


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
        if not (0.0 <= self.r_squared <= 1.0 or math.isnan(self.r_squared)):
            raise ValidationError(f"r_squared out of [0, 1]: {self.r_squared}")


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


def _fit(name: str, obs: Sequence[SpreadObservation]) -> SignalRecord:
    ln_s = np.log([o.price for o in obs])
    ln_z = np.log([o.spread for o in obs])
    if float(np.std(ln_s, ddof=1)) < 1e-10:
        raise DegeneratePrices(f"{name}: log-price sample std < 1e-10, slope undefined")
    if float(np.ptp(ln_z)) == 0.0:
        # Constant spreads: the zero-slope line fits exactly.
        slope, intercept, r2, stderr = 0.0, float(ln_z[0]), 1.0, 0.0
    else:
        res = linregress(ln_s, ln_z)
        slope, intercept, stderr = float(res.slope), float(res.intercept), float(res.stderr)
        r2 = float(res.rvalue) ** 2
    return SignalRecord(
        name=name,
        window_start=obs[0].date,
        window_end=obs[-1].date,
        nu_hat=-slope / 2.0,
        a_tilde=intercept,
        r_squared=min(r2, 1.0),
        n_obs=len(obs),
        slope_stderr=stderr,
    )


def extract_nu(
    series: SpreadSeries,
    window_start: dt.date,
    window_end: dt.date,
    min_window: int = MIN_WINDOW,
) -> SignalRecord:
    """OLS of ln(spread) on ln(price) over [window_start, window_end].

    nu_hat = -slope / 2, a_tilde = intercept; r_squared and the slope
    standard error are kept as fit diagnostics. Raises InsufficientData
    below min_window observations and DegeneratePrices when the
    log-price variation is too small to identify a slope.
    """
    obs = [o for o in series.observations if window_start <= o.date <= window_end]
    if len(obs) < min_window:
        raise InsufficientData(
            f"{series.name}: {len(obs)} observations in window, need >= {min_window}"
        )
    return _fit(series.name, obs)


def rolling_extract(
    series: SpreadSeries,
    window_len: int,
    stride: int,
    min_window: int = MIN_WINDOW,
) -> list[SignalRecord]:
    """Sliding-window extraction: one record per window end date.

    Windows are window_len consecutive observations advanced by stride;
    a trailing partial window is not emitted. Windows that fail
    (insufficient or degenerate data) are logged and skipped; if none
    succeeds, EmptyResult is raised.
    """
    if window_len < 1 or stride < 1:
        raise ValidationError(f"window_len and stride must be >= 1, got {window_len}, {stride}")
    records: list[SignalRecord] = []
    n = len(series)
    for i in range(0, n - window_len + 1, stride):
        obs = series.observations[i : i + window_len]
        if len(obs) < min_window:
            log.warning("%s: window at %s has %d < %d observations, skipped",
                        series.name, obs[0].date, len(obs), min_window)
            continue
        try:
            records.append(_fit(series.name, obs))
        except DataError as exc:
            log.warning("%s: window at %s skipped: %s", series.name, obs[0].date, exc)
    if not records:
        raise EmptyResult(f"{series.name}: no window produced a usable fit")
    return records


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


def load_spread_series(path, name: str | None = None) -> SpreadSeries:
    """Read a per-name CSV with header date,price,spread_bps (ISO dates)."""
    path = Path(path)
    series_name = name if name is not None else path.stem
    observations = []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _SPREAD_HEADER:
            raise DataError(f"{path}: expected header {','.join(_SPREAD_HEADER)}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            try:
                date = dt.date.fromisoformat(row[0])
                price = float(row[1])
                spread = float(row[2])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            observations.append(SpreadObservation(date=date, price=price, spread=spread))
    if not observations:
        raise DataError(f"{path}: no observations")
    return SpreadSeries(name=series_name, observations=tuple(observations))


def write_signals_csv(records: Iterable[SignalRecord], path) -> None:
    """Write records as name,window_start,window_end,nu_hat,a_tilde,r_squared,n_obs."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_SIGNAL_HEADER) + "\n")
        for r in records:
            fh.write(
                f"{r.name},{r.window_start.isoformat()},{r.window_end.isoformat()},"
                f"{r.nu_hat!r},{r.a_tilde!r},{r.r_squared!r},{r.n_obs}\n"
            )


def load_signals_csv(path) -> dict[str, list[SignalRecord]]:
    """Read a signals CSV back into per-name record lists (stderr not kept)."""
    path = Path(path)
    out: dict[str, list[SignalRecord]] = {}
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _SIGNAL_HEADER:
            raise DataError(f"{path}: expected header {','.join(_SIGNAL_HEADER)}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rec = SignalRecord(
                    name=row[0],
                    window_start=dt.date.fromisoformat(row[1]),
                    window_end=dt.date.fromisoformat(row[2]),
                    nu_hat=float(row[3]),
                    a_tilde=float(row[4]),
                    r_squared=float(row[5]),
                    n_obs=int(row[6]),
                    slope_stderr=float("nan"),
                )
            except (ValueError, IndexError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            out.setdefault(rec.name, []).append(rec)
    if not out:
        raise EmptyResult(f"{path}: no signal records")
    return out
