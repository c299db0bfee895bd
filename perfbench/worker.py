"""One workload process: rounds of CLI commands, timed one by one.

Run by run.py as ``python3 perfbench/worker.py <job.json>`` with
PYTHONPATH pointing at the package sources. The job file names the
workload, seed, run length, output directory and whether to trace.
The process imports ``tanhdrift.cli`` once, then runs whole rounds of
the workload's commands through ``tanhdrift.cli.main`` until the run
length has passed (at least one round), each round writing under its
own directory. It writes the exit code and the CPU and wall time of
every command, and in a traced run the per-layer metrics of every round
and the spans, to the result file named in the job.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

import workloads


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    import tanhdrift
    import tanhdrift.cli as cli

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(tanhdrift)

    s = workloads.spec(job["workload"], job["seed"])
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < job["seconds"]:
        out = Path(job["out_dir"]) / f"round{len(rounds)}"
        record = {"dir": str(out), "commands": []}
        if tracer is not None:
            tracer.reset()
        for metric, argv in workloads.round_commands(s, str(out), repeat=tracer is None):
            c0, w0 = time.process_time(), time.perf_counter()
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.call("cli.main", cli.main, (argv,), {})
            except SystemExit as exc:  # argparse usage errors
                rc = 0 if exc.code is None else exc.code
            except Exception:  # a traceback is what a user would see: exit 1
                traceback.print_exc()
                rc = 1
            record["commands"].append({
                "metric": metric, "argv": argv, "exit_code": rc,
                "cpu_s": time.process_time() - c0, "wall_s": time.perf_counter() - w0,
            })
        if tracer is not None:
            record["layers"] = tracer.metrics()
        rounds.append(record)

    result = {"rounds": rounds}
    if tracer is not None:
        result["spans"] = tracer.spans
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
