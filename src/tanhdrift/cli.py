"""Command-line front end.

Subcommands: density, default-prob, simulate, fp-check, synth-universe,
extract, backtest. Every option can also come from a JSON config file
(--config, schema {"command": ..., "options": {...}}), whose values are
parsed as the flags they stand for; explicit CLI flags override it,
unknown keys are rejected, and every run that writes outputs drops the
fully resolved config next to them, so any run is reproducible from
that file alone.

Exit codes: 0 success; 2 invalid parameters or preconditions (also used
by argparse itself); 3 bad, missing, or insufficient data; 4 an oracle
cross-check exceeded its tolerance.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import logging
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import fokker_planck as fp
from . import cds, mc, model, portfolio, universe
from .errors import DataError, EmptyResult, TanhDriftError, ToleranceError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DATA = 3
EXIT_TOLERANCE = 4

log = logging.getLogger(__name__)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _floats(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _pair(text: str) -> tuple[float, float]:
    values = _floats(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected 'lo,hi', got {text!r}")
    return values[0], values[1]


@dataclass(frozen=True)
class Opt:
    """One command-line option; an Opt of type bool is a store_true flag."""

    name: str
    type: object = float
    default: object = None
    help: str = ""
    required: bool = False


_MODEL_OPTS = [
    Opt("nu", float, help="regime-sharpness parameter (>= 0)", required=True),
    Opt("sigma", float, help="annualized volatility (> 0)", required=True),
    Opt("x_star", float, 0.0, "log-price threshold"),
]

COMMANDS: dict[str, list[Opt]] = {
    "density": _MODEL_OPTS
    + [
        Opt("x0", float, help="initial log-price", required=True),
        Opt("t", float, help="elapsed time in years", required=True),
        Opt("x_min", float, help="table range lower edge (default: auto)"),
        Opt("x_max", float, help="table range upper edge (default: auto)"),
        Opt("n_points", int, 101, "number of table bins"),
        Opt("compare_fp", bool, False, "add a finite-difference PDE column"),
        Opt("compare_mc", bool, False, "add a Monte Carlo histogram column"),
        Opt("fp_dx", float, help="PDE grid spacing (default: sigma sqrt(t)/100)"),
        Opt("fp_dt", float, help="PDE time step (default: t/1000, or finer to keep "
                                 "mu_tilde dt / dx <= 1.7)"),
        Opt("mc_paths", int, 100_000, "Monte Carlo paths"),
        Opt("mc_dt", float, help="Monte Carlo time step (default: t/200)"),
        Opt("mc_seed", int, 12345, "Monte Carlo seed"),
        Opt("tol_fp", float, 0.02, "max |pde - closed| / peak before failing"),
        Opt("tol_mc", float, 0.10, "max |mc - closed| / peak before failing"),
        Opt("tol_norm", float, 1e-8, "allowed |integral - 1|"),
        Opt("out_dir", str, help="write density.csv and the resolved config here"),
    ],
    "default-prob": _MODEL_OPTS
    + [
        Opt("s_star", float, help="threshold price (alternative to --x-star)"),
        Opt("s0", float, help="current stock price", required=True),
        Opt("horizons", _floats, [25.0, 100.0, 400.0], "comma-separated horizons in years"),
        Opt("out_dir", str, help="write default_prob.csv and the resolved config here"),
    ],
    "simulate": _MODEL_OPTS
    + [
        Opt("x0", float, help="initial log-price", required=True),
        Opt("n_paths", int, help="number of paths", required=True),
        Opt("dt", float, help="time step in years", required=True),
        Opt("horizon", float, help="total time in years", required=True),
        Opt("seed", int, help="reproducibility seed", required=True),
        Opt("out_dir", str, help="write ensemble.csv and the resolved config here"),
    ],
    "fp-check": _MODEL_OPTS
    + [
        Opt("x0", float, help="initial log-price", required=True),
        Opt("horizon", float, help="total time in years", required=True),
        Opt("dx", float, help="grid spacing", required=True),
        Opt("dt", float, help="time step", required=True),
        Opt("refine", bool, False, "also run a halved grid and report the ratio"),
        Opt("tol", float, 1e-2, "max relative error on the >1e-6-of-peak region"),
        Opt("out_dir", str, help="write density.csv and the resolved config here"),
    ],
    "synth-universe": [
        Opt("n_names", int, help="number of names to draw", required=True),
        Opt("days", int, 504, "trading days to simulate"),
        Opt("seed", int, help="master seed", required=True),
        Opt("out_dir", str, help="output directory", required=True),
        Opt("start_date", dt.date.fromisoformat, dt.date(2020, 1, 1),
            "first calendar date"),
        Opt("nu_range", _pair, (0.3, 3.0), "per-name nu draw range 'lo,hi'"),
        Opt("sigma_range", _pair, (0.2, 0.4), "per-name sigma draw range"),
        Opt("s_star_range", _pair, (20.0, 80.0), "threshold price draw range"),
        Opt("ratio_range", _pair, (5.0, 15.0), "S0/S_star draw range (must stay > 1)"),
        Opt("noise_sigma", float, 0.0, "lognormal observation noise on spreads"),
        Opt("recovery", float, 0.4, "CDS recovery rate"),
        Opt("maturity", float, 5.0, "CDS maturity in years"),
    ],
    "extract": [
        Opt("manifest", str, help="universe manifest CSV", required=True),
        Opt("window", int, 21, "observations per window"),
        Opt("stride", int, 21, "observations between window starts"),
        Opt("min_window", int, cds.MIN_WINDOW, "minimum observations for a fit"),
        Opt("out", str, help="output signals CSV", required=True),
    ],
    "backtest": [
        Opt("manifest", str, help="universe manifest CSV", required=True),
        Opt("signals", str, help="signals CSV from `extract`", required=True),
        Opt("out_dir", str, help="output directory", required=True),
        Opt("every", int, 21, "rebalance every N trading days"),
        Opt("start", dt.date.fromisoformat,
            help="first rebalance date (default: first trading day)"),
        Opt("rank_by", str, "nu", "ranking key: 'nu' or 'mu_tilde'"),
        Opt("truth", str, help="truth.csv for a Spearman quality check"),
    ],
}


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser. It lists the commands but builds none of their
    options: it serves --help and the usage errors of a call that does not
    start with a command."""
    parser = argparse.ArgumentParser(
        prog="tanhdrift",
        description="Regime-switching stock dynamics, CDS signal extraction, decile backtests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, help=f"{name} command")
    return parser


def _command_parser(command: str) -> argparse.ArgumentParser:
    """The parser of one command's options: the subparser the top-level
    parser would hand them to, built on its own."""
    parser = argparse.ArgumentParser(prog=f"tanhdrift {command}")
    parser.set_defaults(command=command)
    parser.add_argument("--config", default=None,
                        help="JSON config file with defaults for this command")
    for o in COMMANDS[command]:
        if o.type is bool:
            parser.add_argument(_flag(o.name), action="store_true", help=o.help)
        else:
            parser.add_argument(_flag(o.name), type=o.type, default=o.default, help=o.help)
    return parser


def _parse(parser: argparse.ArgumentParser, tokens: list[str]) -> argparse.Namespace:
    args, extra = parser.parse_known_args(tokens)
    if extra:
        # the top-level parser reports what its subparser leaves over
        _build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
    return args


# The JSON types a config value may take, by option type; null also goes
# to an option whose default is null.
_JSON_TYPES = {bool: (bool, type(None)), int: (int, str), float: (int, float, str),
               _pair: (list, str), _floats: (list, str)}


def _config_argv(command: str, path: str) -> list[str]:
    """The --name=value tokens that the config file at path stands for.

    Flags take true, false or null; lists go only to the list options,
    numbers only to numeric ones, and null (the default) only to flags
    and to options whose default is null.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot open config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "options" not in raw:
        raise ValidationError(f"config {path} must be an object with an 'options' key")
    if raw.get("command") not in (None, command):
        raise ValidationError(f"config is for command {raw.get('command')!r}, not {command!r}")
    if not isinstance(raw["options"], dict):
        raise ValidationError("config 'options' must be an object")
    by_name = {o.name: o for o in COMMANDS[command]}
    unknown = sorted(set(raw["options"]) - set(by_name))
    if unknown:
        raise ValidationError(f"unknown config keys for {command}: {', '.join(unknown)}")
    tokens = []
    for key, value in raw["options"].items():
        o, flag = by_name[key], _flag(key)
        allowed = _JSON_TYPES.get(o.type, (str,)) + ((type(None),) if o.default is None else ())
        if type(value) not in allowed:
            names = "/".join("null" if t is type(None) else t.__name__ for t in allowed)
            raise ValidationError(
                f"config value for {flag} must be {names}, got {json.dumps(value)}"
            )
        if value is not None and value is not False:
            text = ",".join(map(str, value)) if isinstance(value, list) else value
            tokens.append(flag if value is True else f"{flag}={text}")
    return tokens


def _resolve_options(args: argparse.Namespace) -> dict:
    resolved = {}
    for o in COMMANDS[args.command]:
        value = resolved[o.name] = getattr(args, o.name)
        if o.required and value is None:
            raise ValidationError(f"{args.command}: missing required option {_flag(o.name)}")
        values = value if isinstance(value, (list, tuple)) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ValidationError(f"{args.command}: {_flag(o.name)} must be finite, got {value!r}")
    return resolved


def _jsonable(value):
    if isinstance(value, dt.date):
        return value.isoformat()
    return list(value) if isinstance(value, tuple) else value


def _write_resolved_config(command: str, opts: dict, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "command": command,
        "options": {k: _jsonable(v) for k, v in opts.items()},
    }
    name = command.replace("-", "_") + "_config.json"
    with open(directory / name, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _params(opts: dict) -> model.ModelParams:
    return model.ModelParams(nu=opts["nu"], sigma=opts["sigma"], x_star=opts["x_star"])


def _fp_grid(lo: float, width: float, dx: float, dt_step: float, flag: str) -> fp.GridSpec:
    """The PDE grid of spacing dx from lo that covers lo + width. flag
    names the option dx came from, in the error for a dx that gives no
    grid."""
    if not (dx > 0):
        raise ValidationError(f"{flag} must be > 0, got {dx!r}")
    if not math.isfinite(width / dx):
        raise ValidationError(f"{flag}={dx!r} is too small for a grid {width!r} wide")
    n_x = int(math.ceil(width / dx)) + 1
    return fp.GridSpec(x_min=lo, x_max=lo + (n_x - 1) * dx, n_x=n_x, dt=dt_step)


# ---------------------------------------------------------------------------
# density


def cmd_density(opts: dict) -> int:
    params = _params(opts)
    x0, t = opts["x0"], opts["t"]
    if not (t > 0):
        raise ValidationError(f"t must be > 0, got {t}")
    if params.sigma == 0:
        raise ValidationError("sigma must be > 0 for a density table")
    spread = 4.0 * params.sigma * math.sqrt(t) + params.mu_tilde * t
    x_min = opts["x_min"] if opts["x_min"] is not None else x0 - spread
    x_max = opts["x_max"] if opts["x_max"] is not None else x0 + spread
    if not (x_min < x_max):
        raise ValidationError(f"x_min={x_min} must be < x_max={x_max}")
    n_points = opts["n_points"]
    if n_points < 2:
        raise ValidationError(f"n_points must be >= 2, got {n_points}")
    edges = np.linspace(x_min, x_max, n_points + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    closed = np.asarray(model.density_profile(params, centers, x0, t))
    peak = float(np.max(closed))
    if (opts["compare_fp"] or opts["compare_mc"]) and not (peak > 0):
        raise ValidationError(f"closed-form density is 0 on [{x_min}, {x_max}]: no peak to compare")
    columns: dict[str, np.ndarray] = {"closed_form": closed}
    failures: list[str] = []

    norm = model.density_normalization(params, x0, t)
    if not (abs(norm - 1.0) <= opts["tol_norm"]):
        failures.append(f"normalization |{norm!r} - 1| > {opts['tol_norm']}")

    if opts["compare_fp"]:
        margin = fp.boundary_margin(params, t)
        dx = opts["fp_dx"] if opts["fp_dx"] is not None else params.sigma * math.sqrt(t) / 100.0
        fdt = opts["fp_dt"] if opts["fp_dt"] is not None else t / 1000.0
        lo = min(x_min, x0 - margin) - 2 * dx
        hi = max(x_max, x0 + margin) + 2 * dx
        grid = _fp_grid(lo, hi - lo, dx, fdt, "--fp-dx")
        if opts["fp_dt"] is None and params.mu_tilde * fdt / grid.dx > fp.MAX_COURANT:
            # one step more than the fewest within the PDE's Courant bound
            steps = math.ceil(params.mu_tilde * t / (fp.MAX_COURANT * grid.dx)) + 1
            grid = replace(grid, dt=t / steps)
        field = fp.solve_fp(params, x0, t, grid)
        fp_col = np.interp(centers, grid.x, field.values)
        columns["fokker_planck"] = fp_col
        disc = float(np.max(np.abs(fp_col - closed))) / peak
        if not (disc <= opts["tol_fp"]):
            failures.append(f"pde discrepancy {disc:.3e} > {opts['tol_fp']}")
        print(f"# fokker-planck max |diff|/peak = {disc:.3e}")

    if opts["compare_mc"]:
        mdt = opts["mc_dt"] if opts["mc_dt"] is not None else t / 200.0
        cfg = mc.SimConfig(n_paths=opts["mc_paths"], dt=mdt, horizon=t,
                           seed=opts["mc_seed"], x0=x0)
        terminal = mc.terminal_values(params, cfg)
        # Density over all paths, not only those inside the table (as
        # np.histogram(density=True) would), in np.histogram's own order
        # of operations.
        counts, _ = np.histogram(terminal, bins=edges)
        mc_col = counts / np.diff(edges) / terminal.size
        columns["monte_carlo"] = mc_col
        disc = float(np.max(np.abs(mc_col - closed))) / peak
        if not (disc <= opts["tol_mc"]):
            failures.append(f"monte-carlo discrepancy {disc:.3e} > {opts['tol_mc']}")
        print(f"# monte-carlo max |diff|/peak = {disc:.3e}")

    names = ["x"] + list(columns)
    print("  ".join(f"{n:>14s}" for n in names))
    for i, xc in enumerate(centers):
        row = [xc] + [col[i] for col in columns.values()]
        print("  ".join(f"{v:>14.8g}" for v in row))
    print(f"# normalization: integral = {norm!r} (target 1 +- {opts['tol_norm']})")

    if opts["out_dir"] is not None:
        out = Path(opts["out_dir"])
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "density.csv", "w", newline="") as fh:
            fh.write(",".join(names) + "\n")
            for i, xc in enumerate(centers):
                vals = [xc] + [col[i] for col in columns.values()]
                fh.write(",".join(repr(float(v)) for v in vals) + "\n")
        _write_resolved_config("density", opts, out)
    if failures:
        raise ToleranceError("; ".join(failures))
    return EXIT_OK


# ---------------------------------------------------------------------------
# default-prob


def cmd_default_prob(opts: dict) -> int:
    if opts["s_star"] is not None:
        params = model.ModelParams.from_threshold_price(opts["nu"], opts["sigma"], opts["s_star"])
    else:
        params = _params(opts)
    s0 = opts["s0"]
    if not (s0 > 0):
        raise ValidationError(f"s0 must be > 0, got {s0}")
    x0 = math.log(s0)
    direction = (
        model.Direction.HEALTHY_TO_DISTRESSED
        if x0 >= params.x_star
        else model.Direction.DISTRESSED_TO_HEALTHY
    )
    horizons = opts["horizons"]
    probs = model.regime_transition_probs_finite(params, x0, horizons, direction)
    validities = params.sigma * params.nu * np.sqrt(np.asarray(horizons, dtype=float))
    rows = list(zip(horizons, probs.tolist(), validities.tolist()))
    asym = model.default_prob_asymptotic(params, s0, direction)

    table = [
        f"# direction: {direction.value} (S0={s0!r}, S_star={params.s_star!r})\n",
        f"{'horizon_years':>14s}  {'probability':>14s}  {'sigma*nu*sqrtT':>14s}  validity\n",
    ]
    for horizon, value, validity in rows:
        flag = "ok" if validity >= 3.0 else "outside asymptotic validity"
        table.append(f"{horizon:>14.6g}  {value:>14.8g}  {validity:>14.4g}  {flag}\n")
    table.append(f"{'asymptotic':>14s}  {asym.value:>14.8g}\n")
    sys.stdout.write("".join(table))

    if opts["out_dir"] is not None:
        out = Path(opts["out_dir"])
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "default_prob.csv", "w", newline="") as fh:
            fh.write(
                "horizon_years,probability,sigma_nu_sqrt_t,valid\n"
                + "".join(f"{h!r},{v!r},{w!r},{int(w >= 3.0)}\n" for h, v, w in rows)
                + f"inf,{asym.value!r},,1\n"
            )
        _write_resolved_config("default-prob", opts, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(opts: dict) -> int:
    params = _params(opts)
    cfg = mc.SimConfig(
        n_paths=opts["n_paths"], dt=opts["dt"], horizon=opts["horizon"],
        seed=opts["seed"], x0=opts["x0"],
    )
    ensemble = mc.simulate(params, cfg)
    terminal = ensemble.paths[:, -1]
    print(f"paths={cfg.n_paths} steps={cfg.n_steps} dt={cfg.dt!r} horizon={cfg.horizon!r}")
    print(f"terminal mean={float(np.mean(terminal))!r} std={float(np.std(terminal, ddof=1)) if cfg.n_paths > 1 else 0.0!r}")
    print(f"terminal min={float(np.min(terminal))!r} max={float(np.max(terminal))!r}")
    if opts["out_dir"] is not None:
        out = Path(opts["out_dir"])
        out.mkdir(parents=True, exist_ok=True)
        mc.write_ensemble_csv(ensemble, out / "ensemble.csv")
        _write_resolved_config("simulate", opts, out)
        print(f"wrote {out / 'ensemble.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fp-check


def _fp_error(params, x0, horizon, dx, dt_step) -> tuple[float, fp.DensityField]:
    margin = fp.boundary_margin(params, horizon)
    pad = params.sigma * math.sqrt(horizon)
    grid = _fp_grid(x0 - margin - pad, 2.0 * (margin + pad), dx, dt_step, "--dx")
    field = fp.solve_fp(params, x0, horizon, grid)
    closed = np.asarray(model.density_profile(params, grid.x, x0, horizon))
    region = closed > 1e-6 * float(np.max(closed))
    err = float(np.max(np.abs(field.values[region] - closed[region]) / closed[region]))
    return err, field


def cmd_fp_check(opts: dict) -> int:
    params = _params(opts)
    x0, horizon = opts["x0"], opts["horizon"]
    err, field = _fp_error(params, x0, horizon, opts["dx"], opts["dt"])
    print(f"L_inf relative error (density > 1e-6 of peak): {err:.6e}  (tol {opts['tol']})")
    print(f"peak mass drift (max over steps of mass - 1): {field.peak_mass - 1.0:.3e}")
    if opts["refine"]:
        err2, _ = _fp_error(params, x0, horizon, opts["dx"] / 2.0, opts["dt"] / 2.0)
        ratio = err / err2 if err2 > 0 else float("inf")
        print(f"refined (dx/2, dt/2) error: {err2:.6e}  improvement x{ratio:.2f}")
    if opts["out_dir"] is not None:
        out = Path(opts["out_dir"])
        out.mkdir(parents=True, exist_ok=True)
        fp.write_density_csv(field, out / "density.csv")
        _write_resolved_config("fp-check", opts, out)
    if not (err <= opts["tol"]):
        raise ToleranceError(f"PDE/closed-form mismatch {err:.3e} > {opts['tol']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth-universe


def cmd_synth_universe(opts: dict) -> int:
    spec = universe.UniverseSpec(
        n_names=opts["n_names"],
        days=opts["days"],
        seed=opts["seed"],
        start_date=opts["start_date"],
        nu_range=opts["nu_range"],
        sigma_range=opts["sigma_range"],
        s_star_range=opts["s_star_range"],
        ratio_range=opts["ratio_range"],
        noise_sigma=opts["noise_sigma"],
        recovery_rate=opts["recovery"],
        maturity=opts["maturity"],
    )
    out = Path(opts["out_dir"])
    summary = universe.generate_universe(spec, out)
    _write_resolved_config("synth-universe", opts, out)
    print(
        f"wrote {summary['n_names']} names x {summary['days']} days to {out} "
        f"({summary['skipped_distressed_days']} distressed days skipped in spreads)"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# extract


def cmd_extract(opts: dict) -> int:
    for name in ("window", "stride"):
        if opts[name] < 1:
            raise ValidationError(f"{_flag(name)} must be >= 1, got {opts[name]}")
    rows = universe.load_manifest(opts["manifest"])
    if not rows:
        raise EmptyResult(f"manifest {opts['manifest']} lists no names")
    table, errors = cds.extract_universe(
        [(name, spread_path) for name, _price_path, spread_path in rows],
        opts["window"], opts["stride"], opts["min_window"],
    )
    for name, reason in errors:
        print(f"error: {name}: {reason}", file=sys.stderr)
    if not len(table):
        raise EmptyResult("no name produced any signal record")
    out = Path(opts["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    cds.write_signals_csv(table, out)
    _write_resolved_config("extract", opts, out.parent)
    # a name has rows unless it failed
    print(
        f"wrote {len(table)} records for {len(rows) - len(errors)} names to {out}"
        + (f" ({len(errors)} names failed)" if errors else "")
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# backtest


def cmd_backtest(opts: dict) -> int:
    rows = universe.load_manifest(opts["manifest"])
    if not rows:
        raise EmptyResult(f"manifest {opts['manifest']} lists no names")
    prices = {name: universe.load_price_series(price_path) for name, price_path, _ in rows}
    signals = cds.load_signals_csv(opts["signals"])
    schedule = portfolio.RebalanceSchedule(every=opts["every"], start=opts["start"])
    rank_by = str(opts["rank_by"]).replace("-", "_")
    report = portfolio.backtest(prices, signals, schedule, rank_by=rank_by)

    payload = report.to_dict()
    if opts["truth"] is not None:
        true_nu = universe.load_truth(opts["truth"])
        extracted = {name: float(np.median(signals.nu_hat[rows]))
                     for name, rows in signals.by_name().items()}
        rho = portfolio.signal_quality(true_nu, extracted)
        if math.isnan(rho):
            payload["spearman_true_extracted"] = None
            payload["spearman_undefined_reason"] = (
                "true or extracted nu_hat is constant or NaN over the common names"
            )
        else:
            payload["spearman_true_extracted"] = rho

    out = Path(opts["out_dir"])
    weights_dir = out / "weights"
    weights_dir.mkdir(parents=True, exist_ok=True)
    for snap in report.rebalances:
        with open(weights_dir / f"{snap.date.isoformat()}.csv", "w", newline="") as fh:
            fh.write("name,weight\n")
            fh.write("".join(f"{name},{w!r}\n" for name, w in snap.weights.items()))
    with open(out / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    _write_resolved_config("backtest", opts, out)

    sharpe = payload["sharpe_annualized"]
    print(f"days={payload['n_days']} rebalances={payload['n_rebalances']}")
    print(
        f"mean_daily={payload['mean_return']!r} vol_daily={payload['volatility']!r} "
        f"sharpe={'undefined' if sharpe is None else repr(sharpe)}"
    )
    print(f"turnover_avg={payload['turnover_avg']!r}")
    if "spearman_true_extracted" in payload:
        rho = payload["spearman_true_extracted"]
        print(f"spearman_true_extracted={'undefined' if rho is None else repr(rho)}")
    return EXIT_OK


# ---------------------------------------------------------------------------


_DISPATCH = {
    "density": cmd_density,
    "default-prob": cmd_default_prob,
    "simulate": cmd_simulate,
    "fp-check": cmd_fp_check,
    "synth-universe": cmd_synth_universe,
    "extract": cmd_extract,
    "backtest": cmd_backtest,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(message)s")
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in COMMANDS:
        parser = _build_parser()
        parser.parse_args(argv)  # prints the help or a usage error, and exits
        parser.error(f"expected a command first, got {argv[0]!r}")
    parser = _command_parser(argv[0])
    args = _parse(parser, argv[1:])
    try:
        if args.config is not None:
            # config tokens go ahead of the explicit flags, which win
            args = _parse(parser, _config_argv(args.command, args.config) + argv[1:])
        opts = _resolve_options(args)
        return _DISPATCH[args.command](opts)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ToleranceError as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TanhDriftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
