"""Workload definitions: the CLI commands one round of each workload runs.

A round is the seven commands below, each run through
``tanhdrift.cli.main`` with the arguments a user would type. Every
workload runs all seven so that every end-to-end metric is measured on
every workload; the commands a workload is about run at full size, the
others at a small probe size (see README.md for why each size was
chosen). Only the seed changes between runs of one workload: it is the
universe seed of ``synth-universe`` and the Monte Carlo seed of
``density`` and ``simulate``. The oracle commands keep the model
parameters of the package README, so their cost does not depend on the
seed.
"""

from __future__ import annotations

# end-to-end metric -> CLI subcommand it times, in round order
COMMANDS = {
    "synth_s": "synth-universe",
    "extract_s": "extract",
    "backtest_s": "backtest",
    "density_check_s": "density",
    "default_prob_s": "default-prob",
    "fp_check_s": "fp-check",
    "simulate_s": "simulate",
}

# A command reads the files the command it depends on writes.
DEPENDS = {"extract_s": "synth_s", "backtest_s": "extract_s"}

# Shared model parameters of the oracle commands (the package README's).
ORACLE_MODEL = {"nu": 1.0, "sigma": 0.2, "x0": 0.5}
DENSITY_X0 = 0.3
S_STAR, S0 = 100.0, 150.0

WORKLOADS = {
    # Many names, few fits per row: the cost is synth and per-row loading.
    "universe-wide": {
        "universe": {"n_names": 400, "days": 504, "ratio_range": (5.0, 15.0), "noise_sigma": 0.1},
        "extract": {"window": 21, "stride": 21},
        "backtest": {"every": 21, "rank_by": "nu"},
        "oracle": "probe",
        "repeats": {"backtest_s": 3, "density_check_s": 2, "default_prob_s": 6,
                    "fp_check_s": 2, "simulate_s": 4},
        "costs": {"synth_s": 19.1, "extract_s": 6.7, "backtest_s": 0.87, "density_check_s": 0.73,
                  "default_prob_s": 0.44, "fp_check_s": 0.71, "simulate_s": 0.9},
    },
    # Few names near their threshold, one fit per day, daily rebalances
    # ranked by mu-tilde: the cost is the fits and the as-of join.
    "daily-signals": {
        "universe": {"n_names": 40, "days": 504, "ratio_range": (1.2, 2.0), "noise_sigma": 0.1},
        "extract": {"window": 21, "stride": 1},
        "backtest": {"every": 1, "rank_by": "mu-tilde"},
        "oracle": "probe",
        "repeats": {"synth_s": 2, "density_check_s": 2, "default_prob_s": 6, "fp_check_s": 2,
                    "simulate_s": 4},
        "costs": {"synth_s": 1.97, "extract_s": 9.8, "backtest_s": 6.6, "density_check_s": 0.74,
                  "default_prob_s": 0.44, "fp_check_s": 0.72, "simulate_s": 0.9},
    },
    # Closed form against both oracles; the pipeline runs at probe size.
    "oracle-check": {
        "universe": {"n_names": 20, "days": 252, "ratio_range": (5.0, 15.0), "noise_sigma": 0.1},
        "extract": {"window": 21, "stride": 21},
        "backtest": {"every": 21, "rank_by": "nu"},
        "oracle": "full",
        "repeats": {"synth_s": 4, "extract_s": 10, "backtest_s": 40, "density_check_s": 3,
                    "default_prob_s": 4, "fp_check_s": 2, "simulate_s": 2},
        "costs": {"synth_s": 0.51, "extract_s": 0.17, "backtest_s": 0.037, "density_check_s": 0.72,
                  "default_prob_s": 0.44, "fp_check_s": 3.45, "simulate_s": 1.75},
    },
}

# Oracle command sizes. "full" is the oracle-check workload; "probe" keeps
# every command and check, with fp-check and simulate at a fraction of the
# cost. density and default-prob are the same size on every workload.
ORACLE_SIZES = {
    "full": {"fp_dt": 1e-4, "sim_paths": 4000},
    "probe": {"fp_dt": 5e-4, "sim_paths": 2000},
}
N_HORIZONS = 400
FP_DX, FP_HORIZON = 0.005, 2.0
SIM_DT, SIM_HORIZON = 0.01, 2.0


def horizons(n: int) -> list[float]:
    """n horizons from 0.25 to 100 years, evenly spaced."""
    return [0.25 + (100.0 - 0.25) * i / (n - 1) for i in range(n)]


def spec(workload: str, seed: int) -> dict:
    """Everything the checks need to know about one workload's inputs."""
    w = WORKLOADS[workload]
    sizes = ORACLE_SIZES[w["oracle"]]
    return {
        "workload": workload,
        "seed": seed,
        "universe": dict(w["universe"], seed=seed),
        "extract": dict(w["extract"]),
        "backtest": dict(w["backtest"]),
        "density": {"nu": ORACLE_MODEL["nu"], "sigma": ORACLE_MODEL["sigma"], "x0": DENSITY_X0,
                    "t": 1.0, "mc_seed": seed},
        "default_prob": {"nu": ORACLE_MODEL["nu"], "sigma": ORACLE_MODEL["sigma"],
                         "s_star": S_STAR, "s0": S0, "horizons": horizons(N_HORIZONS)},
        "fp_check": {**ORACLE_MODEL, "horizon": FP_HORIZON, "dx": FP_DX, "dt": sizes["fp_dt"]},
        "simulate": {**ORACLE_MODEL, "n_paths": sizes["sim_paths"], "dt": SIM_DT,
                     "horizon": SIM_HORIZON, "seed": seed},
    }


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def round_commands(s: dict, out: str, repeat: bool = True) -> list[tuple[str, list[str]]]:
    """(metric, argv) for one round writing under directory ``out``.

    A command that takes a second or less runs several times (the
    workload's ``repeats``), so that its metric is taken over seconds
    of work. The runs are spread over the round's time, not over its
    count of commands: the k runs of a command are aimed at the middles
    of k equal shares of the round, timed by the workload's ``costs``
    (rough CPU seconds of one run), and run in the order of those aims
    (see ``schedule`` for commands that read another's output). So the
    short commands run before, between and after the long pipeline
    commands, and one command's samples see the stretches of the host's
    speed, which drifts over seconds, that the whole round sees.
    Repeats rewrite the same files. With ``repeat=False`` (the traced
    run) each command runs once, in pipeline order, so the per-layer
    counts of a round are those of one pass of the workload.
    """
    u, e, b = s["universe"], s["extract"], s["backtest"]
    d, dp, fp, sim = s["density"], s["default_prob"], s["fp_check"], s["simulate"]
    uni = f"{out}/uni"
    argv = {
        "synth-universe": [
            "--n-names", str(u["n_names"]), "--days", str(u["days"]), "--seed", str(u["seed"]),
            "--ratio-range", _csv(u["ratio_range"]), "--noise-sigma", repr(u["noise_sigma"]),
            "--out-dir", uni,
        ],
        "extract": [
            "--manifest", f"{uni}/manifest.csv", "--window", str(e["window"]),
            "--stride", str(e["stride"]), "--out", f"{out}/signals/signals.csv",
        ],
        "backtest": [
            "--manifest", f"{uni}/manifest.csv", "--signals", f"{out}/signals/signals.csv",
            "--out-dir", f"{out}/bt", "--every", str(b["every"]), "--rank-by", b["rank_by"],
            "--truth", f"{uni}/truth.csv",
        ],
        "density": [
            "--nu", repr(d["nu"]), "--sigma", repr(d["sigma"]), "--x0", repr(d["x0"]),
            "--t", repr(d["t"]), "--compare-fp", "--compare-mc", "--mc-seed", str(d["mc_seed"]),
            "--out-dir", f"{out}/density",
        ],
        "default-prob": [
            "--nu", repr(dp["nu"]), "--sigma", repr(dp["sigma"]), "--s-star", repr(dp["s_star"]),
            "--s0", repr(dp["s0"]), "--horizons", _csv(dp["horizons"]),
            "--out-dir", f"{out}/default_prob",
        ],
        "fp-check": [
            "--nu", repr(fp["nu"]), "--sigma", repr(fp["sigma"]), "--x0", repr(fp["x0"]),
            "--horizon", repr(fp["horizon"]), "--dx", repr(fp["dx"]), "--dt", repr(fp["dt"]),
            "--refine", "--out-dir", f"{out}/fp",
        ],
        "simulate": [
            "--nu", repr(sim["nu"]), "--sigma", repr(sim["sigma"]), "--x0", repr(sim["x0"]),
            "--n-paths", str(sim["n_paths"]), "--dt", repr(sim["dt"]),
            "--horizon", repr(sim["horizon"]), "--seed", str(sim["seed"]),
            "--out-dir", f"{out}/sim",
        ],
    }
    if repeat:
        w = WORKLOADS[s["workload"]]
        order = schedule(w["repeats"], w["costs"])
    else:
        order = list(COMMANDS)
    return [(metric, [COMMANDS[metric]] + argv[COMMANDS[metric]]) for metric in order]


def schedule(repeats: dict, costs: dict) -> list[str]:
    """The metrics of one round in run order (see ``round_commands``).

    A command that reads another's output can first run when that
    one's first run has ended. Its first run is aimed at that moment and
    its others over the rest of the round, at the starts of equal
    shares. That moment comes from the order itself, so the order is
    made again until it no longer changes.
    """
    total = sum(costs[m] * repeats.get(m, 1) for m in COMMANDS)
    start = dict.fromkeys(COMMANDS, 0.0)
    order = None
    for _ in range(len(COMMANDS)):
        aims = sorted(
            (start[m] + (j + (m not in DEPENDS) / 2) / repeats.get(m, 1) * (total - start[m]),
             i, m)
            for i, m in enumerate(COMMANDS)
            for j in range(repeats.get(m, 1))
        )
        new, done, waiting = [], set(), []
        for _, _, m in aims:
            waiting.append(m)
            while ready := [w for w in waiting if w not in DEPENDS or DEPENDS[w] in done]:
                waiting.remove(ready[0])
                new.append(ready[0])
                done.add(ready[0])
        assert not waiting
        if new == order:
            break
        order, t, first_end = new, 0.0, {}
        for m in order:
            t += costs[m]
            first_end.setdefault(m, t)
        start = {m: first_end[DEPENDS[m]] if m in DEPENDS else 0.0 for m in COMMANDS}
    return order
