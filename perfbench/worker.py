"""One workload in one fresh single-threaded process.

Imports `liegrpd.cli` from the checkout's `src`, then runs passes over the
workload's jobs for the given number of seconds.  Each job is one in-process
`main(argv)` call, issued only after the previous one returned (a closed loop
with one client).  A sampler (`speed.py`) times a fixed probe loop all through
a pass, and each job's time is scaled to reference seconds by the samples
taken during and next to it.  Reports are checked by the oracle after each
pass, outside the timed region.  Prints one JSON object with the timings.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

MAX_PASSES = 50


def run_job(cli, argv, sampler):
    """One `main(argv)` call: its start, end and time without the sampler's
    share, exit code, standard output and escaped exception."""
    out = io.StringIO()
    rc, error = None, None
    spent = sampler.spent
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
    except Exception as exc:  # a traceback is a failed job, not a crash
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    return t0, t1, t1 - t0 - (sampler.spent - spent), rc, out.getvalue(), error


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import liegrpd.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(args.src) + os.sep):
        sys.stderr.write(f"liegrpd imported from {cli.__file__}, not {args.src}\n")
        return 2
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    import inputs
    import oracle
    import speed
    import tracer as tracing

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        wrappers = []
    else:
        wrappers = tracing.installed_wrappers()

    deadline = time.perf_counter() + args.seconds
    passes, failures = [], []
    slowest_pass = 0.0
    census_found = census_true = 0
    for k in range(MAX_PASSES):
        pass_dir = os.path.join(args.workdir, f"pass{k}")
        jobs = inputs.write_jobs(args.workload, args.seed, k, pass_dir)
        # a seeded job order spreads the short jobs over the pass, so they do
        # not all land in one slow or fast stretch of the machine
        random.Random(f"order-{args.workload}-{args.seed}-{k}").shuffle(jobs)
        outputs = []
        t_pass = time.perf_counter()
        with speed.Sampler() as sampler:
            for job in jobs:
                if tracer is not None:
                    tracer.start_job(f"pass{k}:{job['id']}")
                outputs.append(run_job(cli, job["argv"], sampler))
            time.sleep(2 * speed.INTERVAL_S)  # a sample after the last job
        measured = [o[1] - o[0] for o in outputs]  # sampler share included
        scaled = [o[2] / sampler.slowdown(o[0], o[1]) for o in outputs]
        shutil.rmtree(pass_dir)

        reports = {}
        for job, (_, _, _, _, text, _) in zip(jobs, outputs):
            try:
                reports[job["id"]] = json.loads(text) if text else None
            except json.JSONDecodeError:
                reports[job["id"]] = None
        verdicts = {}  # time to verdict of each job whose verdict was accepted
        for job, (_, _, _, rc, _, error), t in zip(jobs, outputs, scaled):
            report = reports[job["id"]]
            reason = oracle.check(job, rc, report, error, reports)
            if reason is not None:
                failures.append({"pass": k, "id": job["id"], "reason": reason})
            else:
                verdicts[job["id"]] = t
            if job["check"]["kind"] == "census" and job["check"]["components"]:
                census_true += job["check"]["components"]
                census_found += report["component_count"] if reason is None else 0
        passes.append({"wall": sum(scaled), "raw_wall": sum(measured),
                       "slowdown": statistics.median(sampler.slowdowns),
                       "jobs": len(jobs), "times": verdicts})
        slowest_pass = max(slowest_pass, time.perf_counter() - t_pass)
        if time.perf_counter() + slowest_pass > deadline:
            break

    result = {
        "passes": passes,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wrappers": wrappers,
        "fixed": sorted(job["id"] for job in jobs if not job["seeded"]),
    }
    if tracer is not None:
        result["trace"] = {
            "metrics": tracer.metrics(len(passes), census_found, census_true),
            "absent": tracer.absent,
            "self_total_s": sum(tracer.self_s),
            "spans": len(tracer.span_start),
        }
        if args.trace_out:
            tracer.write(args.trace_out)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
