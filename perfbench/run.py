"""End-to-end benchmark of znrank's rank, sweep and oracle routes.

Usage, from the root of a znrank source tree:

    python3 perfbench/run.py --workload rank-exact --seed 1 --seconds 20 --trace 0

Workloads: rank-exact, sweep-float, oracle-exact (see README.md). The seed
draws the input pool; a fresh worker process runs it through
znrank.cli.main in a closed loop for --seconds; every distinct output is
then checked by perfbench/checks.py. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones from the traced rounds.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate  # noqa: E402
import checks  # noqa: E402
import pools  # noqa: E402

SRC = "src"
WORK = ".perfbench_work"
WORKER_TIMEOUT = 170
SETUP_SAMPLES = 21
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import znrank.cli\n"
    "t = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import statistics, calibrate\n"
    "calibrate.gauge()\n"
    "print(t, statistics.median(calibrate.gauge() for _ in range(3)))\n"
)


def child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


def write_inputs(slots, work):
    argvs = []
    for k, slot in enumerate(slots):
        d = os.path.join(work, f"slot{k:02d}")
        os.makedirs(d)
        files = dict(slot.files, **{"p.edges": slot.chain.edge_text()})
        for name, text in files.items():
            with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        argvs.append([a.replace("{dir}", d) for a in slot.argv])
    return argvs


def setup_samples(count):
    """Calibrated seconds from the start of `import znrank.cli` until it
    returns, each in a fresh interpreter, with the gauge timed right after
    the import in the same process."""
    here = os.path.dirname(os.path.abspath(__file__))
    out = []
    for _ in range(count):
        res = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, here], env=child_env(),
                             capture_output=True, text=True, timeout=60, check=True)
        t, g = map(float, res.stdout.split()[-2:])
        out.append(t * calibrate.REF_S / g)
    return out


def calibrated(rounds):
    """Job latencies in seconds at the reference gauge time. A job's gauge
    time is the median of the gauge runs right before it, right after it
    and before the job that preceded it, so one disturbed gauge run does not
    skew the job."""
    out = []
    for lat, gauges in rounds:
        for j, dt in enumerate(lat):
            out.append(dt * calibrate.REF_S / statistics.median(gauges[max(0, j - 1):j + 2]))
    return out


def raw(rounds):
    return [dt for lat, _ in rounds for dt in lat]


def judge(workload, slots, outputs):
    """Check every distinct output of every slot. Returns (failed jobs,
    whether only known-fault slots failed, each passing job's fewest
    correct digits)."""
    check = checks.CHECKS[workload]
    failed = 0
    correct = True
    digits = []
    for k, (slot, seen) in enumerate(zip(slots, outputs)):
        for code, out, err, count in seen:
            if code != 0:
                ok, d, why = False, 0.0, f"exit {code}: {err.strip()}"
            else:
                ok, d, why = check(slot, out)
            if ok:
                digits += [d] * count
                continue
            failed += count
            if not slot.known_fault:
                correct = False
                print(f"slot {k} ({slot.kind}) failed: {why}", file=sys.stderr)
    return failed, correct, digits


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args):
    if not os.path.isfile(os.path.join(SRC, "znrank", "cli.py")):
        print(f"no znrank source tree under ./{SRC}; run from the repository root", file=sys.stderr)
        return 2
    slots = pools.POOLS[args.workload](args.seed)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        job = {
            "src": SRC,
            "argv": write_inputs(slots, work),
            "seconds": args.seconds,
            "trace": args.trace,
        }
        job_path = os.path.join(work, "job.json")
        result_path = os.path.join(work, "result.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
        subprocess.run([sys.executable, worker, job_path, result_path], env=child_env(),
                       timeout=WORKER_TIMEOUT, check=True)
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
        setup = None if args.trace else setup_samples(SETUP_SAMPLES)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    t0 = perf_counter()
    failed, correct, digits = judge(args.workload, slots, res["outputs"])
    print(f"checked {sum(len(o) for o in res['outputs'])} distinct outputs in "
          f"{perf_counter() - t0:.1f} s; fewest digits in any passing job "
          f"{min(digits, default=0.0):.3f}", file=sys.stderr)
    attempted = res["rounds"] * len(slots)
    plain = calibrated(res["plain_rounds"])
    gauges = [g for _, gs in res["plain_rounds"] for g in gs]
    print(f"uncalibrated: {len(plain) / sum(raw(res['plain_rounds'])):.4f} jobs/s; gauge median "
          f"{statistics.median(gauges) * 1000:.3f} ms (reference {calibrate.REF_S * 1000:g} ms)",
          file=sys.stderr)
    if args.trace:
        traced = calibrated(res["traced_rounds"])
        # layer times are scaled to reference time by one factor per run
        scale = sum(traced) / sum(raw(res["traced_rounds"]))
        metrics = res["layers"]
        for m in metrics.values():
            if m["unit"] == "ms":
                m["value"] *= scale
        metrics["trace.jobs_per_s"] = metric(len(traced) / sum(traced), "1/s")
        metrics["trace.untraced_jobs_per_s"] = metric(len(plain) / sum(plain), "1/s")
        metrics["trace.overhead_pct"] = metric(
            100.0 * (statistics.mean(traced) / statistics.mean(plain) - 1.0), "%")
    else:
        lat_ms = [x * 1000.0 for x in plain]
        metrics = {
            "jobs_per_s": metric(len(plain) / sum(plain), "1/s"),
            "job_p50_ms": metric(statistics.median(lat_ms), "ms"),
            "job_p90_ms": metric(statistics.quantiles(lat_ms, n=10)[-1], "ms"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(res["peak_rss_kb"] / 1024.0, "MB"),
            "answer_digits": metric(statistics.median(digits) if digits else 0.0, "digits"),
        }
    print(json.dumps({"correct": correct and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(pools.POOLS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
