"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload universe-wide --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (the package is used from src/,
not installed). One run:

1. measures CLI cold start three times, each a fresh interpreter that
   imports ``tanhdrift.cli`` and builds its parser (``main(['--help'])``);
   with ``--trace 1`` under ``-X importtime``;
2. runs the workload in one fresh process (worker.py), which repeats
   whole rounds of the workload's seven CLI commands for ``--seconds``
   seconds (at least one round) under a temporary directory;
3. checks the outputs of the first round with checks.py, and that every
   later round wrote the same bytes;
4. writes a result file under perfbench/results/ (metrics, every round's
   per-command CPU and wall times, the checks, the git sha, the Python,
   numpy and scipy versions, nproc and the line count of src/; with
   ``--trace 1`` also the spans), removes the temporary directory, and
   prints one JSON object as its last line of output.

Times are CPU seconds (user + system, all threads) of the process doing
the work: on a shared virtual machine wall time also counts the time
the process waits for a CPU that other guests hold, which CPU time
leaves out (see README.md). Wall times are kept in the result file.
"""

from __future__ import annotations

import argparse
import compileall
import datetime as dt
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 160.0
UNITS = {"setup_s": "s", **{m: "s" for m in workloads.COMMANDS}, "peak_rss_mb": "MB"}
# The commands whose outputs each check reads.
CHECK_INPUTS = {
    "spreads": ["synth_s"],
    "signals": ["synth_s", "extract_s"],
    "backtest": ["synth_s", "extract_s", "backtest_s"],
    "density": ["density_check_s"],
    "default_prob": ["default_prob_s"],
    "fp_check": ["fp_check_s"],
    "simulate": ["simulate_s"],
}
SETUP_CODE = "from tanhdrift.cli import main; main(['--help'])"


def _env() -> dict:
    env = dict(os.environ)
    extra = [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + extra)
    return env


def run_child(argv: list[str], stdout, stderr, timeout: float):
    """Run argv to completion; (exit code, rusage of that child alone)."""
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=_env(), cwd=ROOT)
    deadline = time.monotonic() + timeout
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    except BaseException:  # interrupted or terminated: leave no child behind
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def measure_setup(work: Path, trace: bool) -> tuple[list[float], list[dict]]:
    """CPU seconds of each cold start, and its import-time split when traced."""
    argv = [sys.executable] + (["-X", "importtime"] if trace else []) + ["-c", SETUP_CODE]
    cpu, imports = [], []
    for i in range(SETUP_REPEATS):
        err_path = work / f"setup{i}.err"
        with open(err_path, "w") as err:
            rc, usage = run_child(argv, subprocess.DEVNULL, err, timeout=60.0)
        if rc != 0:
            raise RuntimeError(f"cold start exited {rc}: {err_path.read_text()[-2000:]}")
        cpu.append(usage.ru_utime + usage.ru_stime)
        if trace:
            imports.append(tracing.parse_importtime(err_path.read_text()))
    return cpu, imports


def upper_quartile(samples: list[float]) -> float:
    """The third quartile of one command's CPU times in a run; the time
    itself when it ran once.

    On a shared host the same work runs faster while other guests are
    idle, in stretches of seconds. A run's median moves with how many of
    its samples fell in such stretches; its upper quartile moves only when
    more than a quarter did (see README.md).
    """
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


def _data_files(directory: Path) -> dict[str, bytes]:
    """Hashes of the files a round wrote, except the resolved configs
    (they name the round's own directory)."""
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file() and not path.name.endswith("_config.json"):
            out[str(path.relative_to(directory))] = hashlib.sha256(path.read_bytes()).digest()
    return out


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "tanhdrift" / "cli.py").is_file():
        print(f"error: no package sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=2)  # bytecode is written once, not timed as cold start

    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    try:
        setup_cpu, imports = measure_setup(work, bool(args.trace))
        job = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace), "out_dir": str(work / "out"),
            "result": str(work / "worker.json"),
        }
        job_path = work / "job.json"
        job_path.write_text(json.dumps(job))
        with open(work / "worker.out", "w") as out, open(work / "worker.err", "w") as err:
            rc, usage = run_child([sys.executable, str(HERE / "worker.py"), str(job_path)],
                                  out, err, timeout=WORKER_TIMEOUT_S)
        if rc != 0:
            print(f"error: workload process exited {rc}:\n"
                  f"{(work / 'worker.err').read_text()[-4000:]}", file=sys.stderr)
            return 1
        result = json.loads((work / "worker.json").read_text())
        rounds = result["rounds"]

        spec = workloads.spec(args.workload, args.seed)
        commands = [c for r in rounds for c in r["commands"]]
        failed_metrics = {c["metric"] for c in rounds[0]["commands"] if c["exit_code"] != 0}
        failed = sum(1 for c in commands if c["exit_code"] != 0)
        check_results = {
            name: fails
            for name, fails in checks.run_all(spec, Path(rounds[0]["dir"])).items()
            if not failed_metrics.intersection(CHECK_INPUTS[name])
        }
        first = _data_files(Path(rounds[0]["dir"]))
        for r in rounds[1:]:
            if _data_files(Path(r["dir"])) != first:
                check_results.setdefault("determinism", []).append(
                    f"{Path(r['dir']).name} wrote other bytes than round0")
        correct = not any(check_results.values())

        if args.trace:
            units = tracing.LAYER_METRICS
            values = {name: statistics.median(i[name] for i in imports)
                      for name in ("cli.import_s", "cli.import_scipy_s")}
            for name in units:
                if name not in values:
                    values[name] = statistics.median(r["layers"][name] for r in rounds)
        else:
            units = UNITS
            values = {"setup_s": statistics.median(setup_cpu)}
            for metric in workloads.COMMANDS:
                values[metric] = upper_quartile(
                    [c["cpu_s"] for c in commands if c["metric"] == metric])
            values["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace,
            "time_utc": dt.datetime.now(dt.timezone.utc).isoformat(timespec="seconds"),
            "environment": environment(),
            "metrics": metrics,
            "attempted": len(commands), "failed": failed, "correct": correct,
            "checks": check_results,
            "setup_cpu_s": setup_cpu, "setup_imports": imports,
            "worker_rusage": {"utime_s": usage.ru_utime, "stime_s": usage.ru_stime,
                              "maxrss_kb": usage.ru_maxrss},
            "rounds": [{"commands": r["commands"], "layers": r.get("layers")} for r in rounds],
        }
        if args.trace:
            record["spans"] = result["spans"]
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        stamp = dt.datetime.now(dt.timezone.utc).strftime("%Y%m%dT%H%M%S")
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
        (results / name).write_text(json.dumps(record, indent=1))

        env = record["environment"]
        print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} "
              f"git={env['git_sha']} src_lines={env['src_lines']} python={env['python']} "
              f"numpy={env['numpy']} scipy={env['scipy']} nproc={env['nproc']}")
        for check, fails in check_results.items():
            print(f"# check {check}: {'ok' if not fails else 'FAIL: ' + '; '.join(fails[:5])}")
        for k, m in metrics.items():
            print(f"{k} {m['value']!r} {m['unit']}")
        print(f"# result file: {results / name}")
        print(json.dumps({"correct": correct, "attempted": len(commands), "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
