"""Synthetic universe generation and universe file I/O.

Draws per-name model parameters from configured ranges, simulates daily
prices with the seeded integrator (dt = 1/252) as one ensemble per
universe, in which name i is path i and so uses normal i of each day's
Philox substream, prices spreads off the asymptotic default
probability, and writes a desk-style directory:

    out_dir/
      manifest.csv          name,price_file,spread_file (relative paths)
      truth.csv             name,nu,sigma,s_star,s0
      prices/<name>.csv     date,price
      spreads/<name>.csv    date,price,spread_bps

Days where a simulated price dips to or below S_star are omitted from
the spread file (the linearized spread relation only holds in the
healthy regime); prices are written for every day. Everything is a
deterministic function of the seed, so reruns are byte-identical.
"""

from __future__ import annotations

import datetime as dt
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

from .cds import SpreadModelConfig, _days, _read_csv
from .errors import DataError, NonPositiveValue, ValidationError
from .mc import SimConfig, simulate
from .model import ModelParams

__all__ = [
    "UniverseSpec",
    "generate_universe",
    "trading_dates",
    "load_manifest",
    "load_price_series",
    "load_truth",
]

log = logging.getLogger(__name__)

_MANIFEST_HEADER = ["name", "price_file", "spread_file"]
_TRUTH_HEADER = ["name", "nu", "sigma", "s_star", "s0"]
_PRICE_HEADER = ["date", "price"]


@dataclass(frozen=True)
class UniverseSpec:
    """Configuration of a synthetic universe draw."""

    n_names: int
    days: int
    seed: int
    start_date: dt.date = dt.date(2020, 1, 1)
    nu_range: tuple[float, float] = (0.3, 3.0)
    sigma_range: tuple[float, float] = (0.2, 0.4)
    s_star_range: tuple[float, float] = (20.0, 80.0)
    ratio_range: tuple[float, float] = (5.0, 15.0)  # S0 / S_star
    noise_sigma: float = 0.0
    recovery_rate: float = 0.4
    maturity: float = 5.0

    def __post_init__(self) -> None:
        if self.n_names < 1:
            raise ValidationError(f"n_names must be >= 1, got {self.n_names}")
        if self.days < 2:
            raise ValidationError(f"days must be >= 2, got {self.days}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if trading_dates(self.start_date, self.days)[-1] > np.datetime64(dt.date.max):
            raise ValidationError(f"{self.days} days from {self.start_date} end after year 9999")
        for label, (lo, hi) in (
            ("nu_range", self.nu_range),
            ("sigma_range", self.sigma_range),
            ("s_star_range", self.s_star_range),
            ("ratio_range", self.ratio_range),
        ):
            if not (lo <= hi):
                raise ValidationError(f"{label} must be ascending, got ({lo}, {hi})")
        if self.nu_range[0] < 0:
            raise ValidationError("nu_range must be nonnegative")
        if self.sigma_range[0] <= 0:
            raise ValidationError("sigma_range must be positive")
        if self.s_star_range[0] <= 0:
            raise ValidationError("s_star_range must be positive")
        if self.ratio_range[0] <= 1.0:
            raise ValidationError(
                f"ratio_range min must be > 1 (S0 > S_star), got {self.ratio_range[0]}"
            )
        if self.noise_sigma < 0:
            raise ValidationError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


def trading_dates(start: dt.date, n: int) -> np.ndarray:
    """n consecutive weekdays, as datetime64[D], from the first weekday >= start."""
    return np.busday_offset(start, np.arange(n), roll="forward")


def generate_universe(spec: UniverseSpec, out_dir) -> dict:
    """Write a synthetic universe under out_dir; returns a small summary.

    All names are simulated as one ensemble (path i is name i, seeded
    with the first drawn simulation seed), and every healthy-day spread
    is priced at once as b * expit(-2 nu (ln S - x_star)), the value
    :func:`tanhdrift.cds.synth_spread` gives for one price.
    """
    out = Path(out_dir)
    (out / "prices").mkdir(parents=True, exist_ok=True)
    (out / "spreads").mkdir(parents=True, exist_ok=True)
    cfg = SpreadModelConfig(recovery_rate=spec.recovery_rate, maturity=spec.maturity)
    rng = np.random.default_rng(spec.seed)
    n = spec.n_names
    nus = rng.uniform(*spec.nu_range, n)
    sigmas = rng.uniform(*spec.sigma_range, n)
    s_stars = rng.uniform(*spec.s_star_range, n)
    ratios = rng.uniform(*spec.ratio_range, n)
    # One seed per name is still drawn so that the noise seeds after
    # them, and so the noise, stay what they were per name.
    sim_seeds = rng.integers(0, 2**62, size=n)
    noise_seeds = rng.integers(0, 2**62, size=n)
    dates = np.datetime_as_string(trading_dates(spec.start_date, spec.days)).tolist()

    params = [
        ModelParams.from_threshold_price(float(nu), float(sigma), float(s_star))
        for nu, sigma, s_star in zip(nus, sigmas, s_stars)
    ]
    s0s = [p.s_star * float(r) for p, r in zip(params, ratios)]
    sim = SimConfig(
        n_paths=n,
        dt=1.0 / 252.0,
        horizon=spec.days / 252.0,
        seed=int(sim_seeds[0]),
        x0=tuple(math.log(s0) for s0 in s0s),
    )
    # days steps give days + 1 columns (SimConfig needs dt < horizon),
    # of which the last is dropped.
    prices = np.exp(simulate(params, sim).paths[:, : spec.days])
    x_star = np.array([p.x_star for p in params])[:, None]
    healthy = prices > np.array([p.s_star for p in params])[:, None]
    spreads = cfg.b * expit(-(2.0 * nus)[:, None] * (np.log(prices) - x_star))
    if spec.noise_sigma > 0:
        xi = np.array([np.random.default_rng(int(seed)).standard_normal(spec.days)
                       for seed in noise_seeds])
        spreads *= np.exp(spec.noise_sigma * xi)

    manifest_rows: list[str] = []
    truth_rows: list[str] = []
    for i in range(n):
        name = f"N{i:03d}"
        price_rel = f"prices/{name}.csv"
        spread_rel = f"spreads/{name}.csv"
        price_text = list(map(repr, prices[i].tolist()))
        with open(out / price_rel, "w", newline="") as fh:
            fh.write("date,price\n" + "".join([f"{d},{p}\n" for d, p in zip(dates, price_text)]))
        lines = [
            f"{d},{p},{z!r}\n"
            for d, p, z, ok in zip(dates, price_text, spreads[i].tolist(), healthy[i].tolist())
            if ok
        ]
        with open(out / spread_rel, "w", newline="") as fh:
            fh.write("date,price,spread_bps\n" + "".join(lines))
        if not lines:
            log.warning("%s: never in the healthy regime, omitted from the manifest", name)
            continue
        manifest_rows.append(f"{name},{price_rel},{spread_rel}\n")
        truth_rows.append(f"{name},{float(nus[i])!r},{float(sigmas[i])!r},"
                          f"{float(s_stars[i])!r},{s0s[i]!r}\n")

    if not manifest_rows:
        raise DataError("no name produced any healthy-regime spread observation")
    with open(out / "manifest.csv", "w", newline="") as fh:
        fh.write(",".join(_MANIFEST_HEADER) + "\n" + "".join(manifest_rows))
    with open(out / "truth.csv", "w", newline="") as fh:
        fh.write(",".join(_TRUTH_HEADER) + "\n" + "".join(truth_rows))
    return {
        "n_names": len(manifest_rows),
        "days": spec.days,
        "skipped_distressed_days": int(healthy.size - np.count_nonzero(healthy)),
    }


def load_manifest(path) -> list[tuple[str, Path, Path]]:
    """Read manifest.csv; file paths are resolved relative to it. A name
    that holds a comma, quote, CR or LF, or repeats an earlier row, is a
    data error at its line: signals.csv and weight files write names bare."""
    path = Path(path)
    earlier: set[str] = set()

    def rows(names, prices, spreads):
        # The reader passes the whole file, or one row at a time when it
        # locates an error; names count as earlier once their call returns.
        seen = set(earlier)
        for name in names:
            if set(name) & set(',"\r\n'):
                raise DataError(f"name {name!r} holds a comma, quote or line break")
            if name in seen:
                raise DataError(f"name {name!r} repeats an earlier row")
            seen.add(name)
        earlier.update(seen)
        return [(n, path.parent / p, path.parent / z) for n, p, z in zip(names, prices, spreads)]

    return _read_csv(path, _MANIFEST_HEADER, (str, str, str), rows)


def _positive_prices(dates: list[dt.date], price: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    bad = np.flatnonzero(~(np.isfinite(price) & (price > 0)))
    if bad.size:
        raise NonPositiveValue(f"price must be finite and > 0, got {float(price[bad[0]])}")
    return _days(dates), price


def load_price_series(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a per-name price CSV with header date,price (ISO dates) as
    (datetime64[D] dates, float64 prices) in file order.

    Every price must be finite and > 0: NonPositiveValue names the
    first line where one is not.
    """
    path = Path(path)
    dates, price = _read_csv(path, _PRICE_HEADER, (dt.date, float), _positive_prices)
    if not dates.size:
        raise DataError(f"{path}: no price rows")
    return dates, price


def load_truth(path) -> dict[str, float]:
    """Read truth.csv into name -> true nu."""
    path = Path(path)
    names, nu, *_ = _read_csv(path, _TRUTH_HEADER, (str, float, str, str, str))
    out = dict(zip(names, nu.tolist()))
    if not out:
        raise DataError(f"{path}: no truth rows")
    return out
