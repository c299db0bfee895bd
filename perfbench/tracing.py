"""Spans and counters around the public functions of the tanhdrift modules.

The traced run wraps every function a module lists in ``__all__`` (and
rebinds the names other modules imported with ``from .x import f``), so
the program itself is unchanged. Every wrapped call adds its CPU time
and one call to a per-function total. The calls the CLI makes into a
layer are also kept as spans under the command's root span, and each
span lists the wrapped calls beneath it (such as ``mc.simulate`` under
``universe.generate_universe``, or the quadrature integrand
``density_profile`` under ``regime_transition_prob_finite``) by name,
with their count and CPU time. Per-row calls such as ``synth_spread``
run 200k times a round, so they are totalled rather than kept one by
one. Spans are written to the trace file when the run ends. Counters
are taken at the same boundaries, from the arguments and return values
of the wrapped calls.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

MODULES = ("universe", "mc", "cds", "portfolio", "model", "fokker_planck")

# Per-layer metrics with their units, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "universe.generate_universe_s": "s",
    "universe.bytes_written": "bytes",
    "mc.simulate_s": "s",
    "mc.simulate_calls": "count",
    "mc.substreams": "count",
    "mc.path_steps": "count",
    "universe.load_manifest_s": "s",
    "universe.load_price_series_s": "s",
    "cds.load_spread_series_s": "s",
    "cds.rows_read": "count",
    "cds.rolling_extract_s": "s",
    "cds.windows_fitted": "count",
    "cds.windows_skipped": "count",
    "cds.fits_per_s": "1/s",
    "cds.names_failed": "count",
    "cds.write_signals_csv_s": "s",
    "cds.load_signals_csv_s": "s",
    "portfolio.backtest_s": "s",
    "portfolio.rebalances": "count",
    "portfolio.held_rebalances": "count",
    "portfolio.held_share": "ratio",
    "portfolio.signal_quality_s": "s",
    "model.density_profile_s": "s",
    "model.integrand_evals": "count",
    "model.density_normalization_s": "s",
    "model.regime_transition_prob_finite_s": "s",
    "model.finite_prob_calls": "count",
    "mc.terminal_values_s": "s",
    "mc.path_steps_per_s": "1/s",
    "mc.write_ensemble_csv_s": "s",
    "fokker_planck.solve_fp_s": "s",
    "fokker_planck.solves": "count",
    "fokker_planck.node_steps": "count",
    "fokker_planck.node_steps_per_s": "1/s",
}

_QUADRATURE_CALLERS = ("model.density_normalization", "model.regime_transition_prob_finite")


def _dir_bytes(path) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


class Tracer:
    """Spans of the whole run; CPU totals and counters of the current round."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[tuple[str, int]] = []  # (function, index of its kept span)
        self.reset()

    def reset(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)  # function -> CPU seconds
        self.counts: dict[str, int] = defaultdict(int)

    # -- spans ---------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        index = None
        owner = self._stack[-1][1] if self._stack else None  # nearest kept span
        if len(self._stack) <= 1:
            index = len(self.spans)
            self.spans.append({"name": name, "parent": owner, "start": time.perf_counter(),
                               "calls": {}})
        self._stack.append((name, index if index is not None else owner))
        if name == "model.density_profile" and any(
            caller in _QUADRATURE_CALLERS for caller, _ in self._stack
        ):
            self.counts["model.integrand_evals"] += 1
        c0 = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            cpu = time.process_time() - c0
            self._stack.pop()
            self.busy[name] += cpu
            if index is not None:
                self.spans[index]["end"] = time.perf_counter()
                self.spans[index]["cpu_s"] = cpu
            else:
                below = self.spans[owner]["calls"].setdefault(name, [0, 0.0])
                below[0] += 1
                below[1] += cpu

    # -- instrumentation -----------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of every module of ``package``."""
        modules = {m: getattr(package, m) for m in MODULES}
        replaced = {}
        for mod_name, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    replaced[fn] = self._wrapper(f"{mod_name}.{attr}", fn)
        for mod in list(modules.values()) + [sys.modules[package.__name__ + ".cli"], package]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(mod, attr, replaced[value])

    def _wrapper(self, name: str, fn):
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is None:
                return self.call(name, fn, args, kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            try:
                result = self.call(name, fn, args, kwargs)
            except Exception as exc:
                hook(self.counts, bound.arguments, None, exc)
                raise
            hook(self.counts, bound.arguments, result, None)
            return result

        return traced

    # -- metrics -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the round (all but the cli.import ones)."""
        out: dict[str, float] = {}
        for metric in LAYER_METRICS:
            if metric.startswith("cli."):
                continue
            if metric.endswith("_s") and not metric.endswith("per_s"):
                out[metric] = self.busy.get(metric[:-2], 0.0)
            else:
                out[metric] = self.counts.get(metric, 0)
        out["cds.fits_per_s"] = _rate(out["cds.windows_fitted"], out["cds.rolling_extract_s"])
        out["mc.path_steps_per_s"] = _rate(self.counts.get("mc.terminal_path_steps", 0),
                                           out["mc.terminal_values_s"])
        out["fokker_planck.node_steps_per_s"] = _rate(out["fokker_planck.node_steps"],
                                                      out["fokker_planck.solve_fp_s"])
        rebal = out["portfolio.rebalances"]
        out["portfolio.held_share"] = out["portfolio.held_rebalances"] / rebal if rebal else 0.0
        return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


# -- counters, keyed by wrapped function: (counts, arguments, result, exc) ----


def _generate_universe(c, a, result, exc):
    if exc is None:
        c["universe.bytes_written"] += _dir_bytes(a["out_dir"])


def _simulate(c, a, result, exc):
    cfg = a["cfg"]
    c["mc.simulate_calls"] += 1
    c["mc.substreams"] += cfg.n_steps
    c["mc.path_steps"] += cfg.n_paths * cfg.n_steps


def _terminal_values(c, a, result, exc):
    cfg = a["cfg"]
    c["mc.terminal_path_steps"] += cfg.n_paths * cfg.n_steps


def _load_spread_series(c, a, result, exc):
    if exc is None:
        c["cds.rows_read"] += len(result)
    else:
        c["cds.names_failed"] += 1


def _rolling_extract(c, a, result, exc):
    n = len(a["series"])
    windows = len(range(0, n - a["window_len"] + 1, max(a["stride"], 1)))
    fitted = 0 if exc is not None else len(result)
    c["cds.windows_fitted"] += fitted
    c["cds.windows_skipped"] += windows - fitted
    if exc is not None:
        c["cds.names_failed"] += 1


def _backtest(c, a, result, exc):
    if exc is None:
        c["portfolio.rebalances"] += len(result.rebalances)
        c["portfolio.held_rebalances"] += sum(
            1 for snap in result.rebalances if any(w != 0.0 for w in snap.weights.values())
        )


def _finite_prob(c, a, result, exc):
    c["model.finite_prob_calls"] += 1


def _solve_fp(c, a, result, exc):
    # Step count as solve_fp derives it: the mollified start (width
    # ic_width, default 2 dx) stands for t0 = width^2 / sigma^2 of diffusion.
    grid, params = a["grid"], a["params"]
    width = 2.0 * grid.dx if a["ic_width"] is None else float(a["ic_width"])
    steps = round((a["horizon"] - width * width / params.sigma ** 2) / grid.dt)
    c["fokker_planck.solves"] += 1
    c["fokker_planck.node_steps"] += (grid.n_x - 2) * steps


_HOOKS = {
    "universe.generate_universe": _generate_universe,
    "mc.simulate": _simulate,
    "mc.terminal_values": _terminal_values,
    "cds.load_spread_series": _load_spread_series,
    "cds.rolling_extract": _rolling_extract,
    "portfolio.backtest": _backtest,
    "model.regime_transition_prob_finite": _finite_prob,
    "fokker_planck.solve_fp": _solve_fp,
}


def parse_importtime(stderr: str) -> dict[str, float]:
    """cli.import_s and cli.import_scipy_s from ``python -X importtime`` output.

    cli.import_s is the cumulative time of the top-level ``tanhdrift``
    and ``tanhdrift.cli`` imports; cli.import_scipy_s sums the outermost
    ``scipy`` imports (those not nested in another scipy import).
    """
    entries = []  # (depth, name, cumulative us) in the order printed (children first)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    cli_us = sum(us for depth, name, us in entries
                 if depth == 0 and name in ("tanhdrift", "tanhdrift.cli"))
    scipy_us = 0
    stack: list[tuple[int, bool]] = []  # (depth, inside a scipy import)
    for depth, name, us in reversed(entries):  # parents now precede children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy_us += us
        stack.append((depth, inside or is_scipy))
    return {"cli.import_s": cli_us / 1e6, "cli.import_scipy_s": scipy_us / 1e6}
