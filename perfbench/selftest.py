"""Self-test of the output checks: each must reject a corrupted real output.

    python3 perfbench/selftest.py [--workload oracle-check] [--seed 1]

Runs one round of the workload (through worker.py, as a benchmark run
does), requires every check to pass on its real outputs, then for each
corruption below copies the round's directory, damages one file in it,
and requires the named check to report a failure. Exits 1 if a check
fails on the real outputs or accepts a corrupted copy. The temporary
directory is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def _edit_csv(path: Path, edit) -> None:
    """Apply edit(rows) to the data rows (lists of fields) of a CSV file."""
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    edit(rows)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def _scale(row: list[str], col: int, factor: float) -> None:
    row[col] = repr(float(row[col]) * factor)


def _first(directory: Path) -> Path:
    return sorted(directory.glob("*.csv"))[0]


def _held_book(out: Path) -> Path:
    for path in sorted((out / "bt" / "weights").glob("*.csv")):
        if any(float(line.split(",")[1]) != 0.0 for line in path.read_text().splitlines()[1:]):
            return path
    raise RuntimeError("no held rebalance to corrupt")


def _swap_long_with_flat(out: Path) -> None:
    def edit(rows):
        long = next(i for i, r in enumerate(rows) if float(r[1]) > 0)
        flat = next(i for i, r in enumerate(rows) if float(r[1]) == 0)
        rows[long][1], rows[flat][1] = rows[flat][1], rows[long][1]
    _edit_csv(_held_book(out), edit)


def _edit_report(out: Path, edit) -> None:
    path = out / "bt" / "report.json"
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def _nudge_return(report: dict) -> None:
    report["daily_returns"][len(report["daily_returns"]) // 2][1] += 1e-9


def _shift_terminal(out: Path) -> None:
    """Shift every terminal value by 10 standard errors of their mean."""
    path = out / "sim" / "ensemble.csv"
    lines = path.read_text().splitlines()
    last = int(lines[-1].split(",")[1])  # rows end with the last path's last step
    rows = [line.split(",") for line in lines[1:]]
    terminal = [float(r[2]) for r in rows if int(r[1]) == last]
    shift = 10.0 * statistics.stdev(terminal) / len(terminal) ** 0.5
    for r in rows:
        if int(r[1]) == last:
            r[2] = repr(float(r[2]) + shift)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def _peak_row(rows, col):
    return max(rows, key=lambda r: float(r[col]))


# (check, description, corrupt(out_dir))
CORRUPTIONS = [
    ("spreads", "one spread row's price replaced by the next day's",
     lambda out: _edit_csv(_first(out / "uni" / "spreads"),
                           lambda rows: rows[5].__setitem__(1, rows[6][1]))),
    ("spreads", "one name's spreads scaled by 1.1",
     lambda out: _edit_csv(_first(out / "uni" / "spreads"),
                           lambda rows: [_scale(r, 2, 1.1) for r in rows])),
    ("spreads", "one healthy day's spread row deleted",
     lambda out: _edit_csv(_first(out / "uni" / "spreads"), lambda rows: rows.pop(3))),
    ("signals", "one nu_hat nudged by 1e-6",
     lambda out: _edit_csv(out / "signals" / "signals.csv",
                           lambda rows: rows[7].__setitem__(3, repr(float(rows[7][3]) + 1e-6)))),
    ("signals", "one signal record deleted",
     lambda out: _edit_csv(out / "signals" / "signals.csv", lambda rows: rows.pop(4))),
    ("backtest", "a long weight swapped with a flat name's",
     _swap_long_with_flat),
    ("backtest", "one daily return nudged by 1e-9",
     lambda out: _edit_report(out, _nudge_return)),
    ("density", "one closed-form density value scaled by 1 + 1e-6",
     lambda out: _edit_csv(out / "density" / "density.csv",
                           lambda rows: _scale(rows[50], 1, 1.0 + 1e-6))),
    ("density", "the Monte Carlo peak raised by 15%",
     lambda out: _edit_csv(out / "density" / "density.csv",
                           lambda rows: _scale(_peak_row(rows, 3), 3, 1.15))),
    ("default_prob", "one horizon's probability scaled by 1 + 1e-5",
     lambda out: _edit_csv(out / "default_prob" / "default_prob.csv",
                           lambda rows: _scale(rows[10], 1, 1.0 + 1e-5))),
    ("default_prob", "the asymptotic probability scaled by 1 + 1e-9",
     lambda out: _edit_csv(out / "default_prob" / "default_prob.csv",
                           lambda rows: _scale(rows[-1], 1, 1.0 + 1e-9))),
    ("fp_check", "the PDE density peak scaled by 1.02",
     lambda out: _edit_csv(out / "fp" / "density.csv",
                           lambda rows: _scale(_peak_row(rows, 1), 1, 1.02))),
    ("simulate", "every terminal value shifted by 10 standard errors",
     _shift_terminal),
    ("simulate", "one path's starting value changed",
     lambda out: _edit_csv(out / "sim" / "ensemble.csv",
                           lambda rows: rows[0].__setitem__(2, repr(float(rows[0][2]) + 1e-3)))),
]

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Check that every output check rejects "
                                                 "a corrupted copy of a real output.")
    parser.add_argument("--workload", default="oracle-check", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    (run.HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.HERE / ".work"))
    try:
        job = {"workload": args.workload, "seed": args.seed, "seconds": 0, "trace": False,
               "out_dir": str(work / "out"), "result": str(work / "worker.json")}
        (work / "job.json").write_text(json.dumps(job))
        with open(work / "worker.out", "w") as out, open(work / "worker.err", "w") as err:
            rc, _ = run.run_child([sys.executable, str(run.HERE / "worker.py"),
                                   str(work / "job.json")], out, err, run.WORKER_TIMEOUT_S)
        result = json.loads((work / "worker.json").read_text()) if rc == 0 else {"rounds": []}
        commands = [c for r in result["rounds"] for c in r["commands"]]
        if rc != 0 or any(c["exit_code"] != 0 for c in commands):
            print(f"the workload did not run cleanly (exit {rc})", file=sys.stderr)
            return 1
        spec = workloads.spec(args.workload, args.seed)
        real = work / "out" / "round0"
        ok = True
        for name, fails in checks.run_all(spec, real).items():
            print(f"real output      {name:12s} {'passes' if not fails else 'FAILS: ' + fails[0]}")
            ok &= not fails
        for i, (name, what, corrupt) in enumerate(CORRUPTIONS):
            copy = work / f"corrupt{i}"
            shutil.copytree(real, copy)
            corrupt(copy)
            fails = checks.run_all(spec, copy)[name]
            print(f"corrupted output {name:12s} {'rejected' if fails else 'ACCEPTED'}: {what}"
                  + (f" ({fails[0]})" if fails else ""))
            ok &= bool(fails)
            shutil.rmtree(copy)
        print("selftest " + ("passed" if ok else "FAILED"))
        return 0 if ok else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
