"""One workload in one fresh process: import znrank.cli, run an untimed
warm-up round of the pool, then timed rounds back to back until the run
length has passed, and write the latencies, gauge times, outputs and memory
to a JSON file. One job runs at a time (a closed loop with one client).
The machine-speed gauge (calibrate.py) runs before every job and after the
last one of a round, outside the timed calls.

Usage: python3 perfbench/worker.py JOBFILE RESULTFILE

JOBFILE holds {"src", "argv": [[...] per slot], "seconds", "trace"}. With trace set, rounds alternate untraced and
traced, so one run gives the per-layer figures and the tracing overhead.
"""

import contextlib
import gc
import io
import json
import os
import resource
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calibrate import gauge  # noqa: E402

MIN_JOBS = 100  # enough jobs for a 90th percentile with ten beyond it
MAX_SECONDS = 120  # stop timed rounds here whatever the run length says


def run_round(main, argvs, outputs, tracer=None):
    """Run every slot once. Returns the job latencies and the gauge times
    around them (one more than there are jobs), in seconds."""
    lat = []
    gauges = [gauge()]
    for slot, argv in enumerate(argvs):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            code = main(argv)
            dt = perf_counter() - t0
        gauges.append(gauge())
        lat.append(dt)
        if tracer is not None:
            tracer.end_job(dt)
        if outputs is not None:
            key = json.dumps([code, out.getvalue(), err.getvalue()])
            outputs[slot][key] = outputs[slot].get(key, 0) + 1
    return [lat, gauges]


def main():
    job_path, result_path = sys.argv[1:3]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, os.path.abspath(job["src"]))
    import znrank.cli

    argvs = job["argv"]
    trace = bool(job["trace"])
    tracer = None
    if trace:
        from tracing import Tracer

        import znrank.arborescence  # noqa: F401  (loaded lazily by the CLI)
        import znrank.sweep  # noqa: F401
        import znrank.zero_noise  # noqa: F401

        tracer = Tracer()

    cli_main = znrank.cli.main
    run_round(cli_main, argvs, None)  # warm-up, untimed
    outputs = [{} for _ in argvs]
    plain, traced_rounds = [], []
    rounds = 0
    start = perf_counter()
    while True:
        traced = trace and rounds % 2 == 1
        if traced:
            tracer.install()
        gc.collect()
        timed = run_round(cli_main, argvs, outputs, tracer if traced else None)
        if traced:
            tracer.uninstall()
            traced_rounds.append(timed)
        else:
            plain.append(timed)
        rounds += 1
        if trace and rounds % 2:
            continue
        elapsed = perf_counter() - start
        if elapsed >= job["seconds"] and rounds * len(argvs) >= MIN_JOBS:
            break
        if elapsed >= MAX_SECONDS:
            break
    result = {
        "rounds": rounds,
        "plain_rounds": plain,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "outputs": [[json.loads(k) + [c] for k, c in o.items()] for o in outputs],
    }
    if trace:
        result["layers"] = tracer.metrics()
        result["traced_rounds"] = traced_rounds
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
