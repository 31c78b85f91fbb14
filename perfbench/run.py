"""liegrpd benchmark: three CLI workloads timed end to end, plus a traced run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 36 --trace 0

Workloads: census, structure, groupoid (see README.md), or `all` for the
three in turn.  Each runs in its own fresh single-threaded Python process that
calls `liegrpd.cli.main(argv)` in-process, one job at a time, and checks every
verdict.

--trace 0 prints the end-to-end metrics: set-up time (spawn to
`import liegrpd.cli` done, median of several spawns), pass wall time, median
and slowest job, peak RSS and the share of jobs with an accepted verdict.
Times are in reference seconds: each is scaled by a speed probe timed next
to it (`speed.py`), so the machine's changes of speed cancel out.
--trace 1 first runs the workload untraced for a reference, then traced, and
prints the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("census", "structure", "groupoid")
SETUP_SPAWNS = (5, 4)  # before and after the workload, so they span the run
REFERENCE_SHARE = 0.35  # of --seconds, for the untraced reference of a traced run
CHILD_TIMEOUT = 160

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # single-threaded numpy
    return env


def spawn(argv):
    return subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def finish(proc, timeout):
    """Wait for a child; on timeout kill it and wait until it has ended."""
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def setup_time() -> float:
    """Reference seconds from spawning a process until `import liegrpd.cli`
    has finished, scaled by speed probes just before and after."""
    code = "import liegrpd.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    before = speed.probe()
    t0 = time.perf_counter()
    proc = spawn([sys.executable, "-c", code])
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        finish(proc, 30)
    if line.strip() != "ready":
        raise RuntimeError("set-up probe did not import liegrpd.cli")
    return elapsed * 2 / (before + speed.probe())


def run_worker(workload, seed, seconds, traced, workdir, trace_out=None):
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(traced)), "--workdir", str(workdir), "--src", str(SRC)]
    if trace_out:
        argv += ["--trace-out", str(trace_out)]
    out = finish(spawn(argv), CHILD_TIMEOUT)
    return json.loads(out.strip().splitlines()[-1])


def job_stats(res):
    """Median time to verdict over every job of the run, and the slowest job
    whose input does not depend on the seed, by its median over the passes.

    A failed job has no verdict, so no time to verdict; its time still counts
    in the pass wall time.  Times are in reference seconds (`speed.py`)."""
    times = {}
    for p in res["passes"]:
        for job, t in p["times"].items():
            times.setdefault(job, []).append(t)
    per_job = {job: statistics.median(times[job]) for job in res["fixed"] if job in times}
    slowest = max(per_job, key=per_job.get)
    p50 = statistics.median(t for ts in times.values() for t in ts)
    return p50, per_job[slowest], slowest


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    """Run one workload, print its metrics and, last, its JSON result line."""
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    try:
        if trace:
            ref = run_worker(workload, seed, seconds * REFERENCE_SHARE, False, workdir)
            outdir.mkdir(exist_ok=True)
            trace_out = outdir / f"spans-{workload}-seed{seed}.bin.gz"
            res = run_worker(workload, seed, seconds * (1 - REFERENCE_SHARE), True,
                             workdir, trace_out)
            results = [ref, res]
        else:
            setups = [setup_time() for _ in range(SETUP_SPAWNS[0])]
            res = run_worker(workload, seed, seconds, False, workdir)
            setups += [setup_time() for _ in range(SETUP_SPAWNS[1])]
            results = [res]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["jobs"] for r in results for p in r["passes"])
    failures = [f for r in results for f in r["failures"]]
    unexpected = [f for f in failures if f["id"] not in oracle.KNOWN_FAILURES]
    problems = [f"unexpected failure in pass {f['pass']}: {f['id']}: {f['reason']}"
                for f in unexpected]
    for r in results:
        if r["wrappers"]:
            problems.append(f"untraced run has tracer wrappers: {r['wrappers']}")
    # a mean, not a median: a run holds only 2-6 passes, each with fresh
    # seeded inputs, and the mean of so few averages their draws better
    wall = statistics.fmean(p["wall"] for p in res["passes"])
    p50, slowest, slowest_id = job_stats(res)
    raw_wall = statistics.fmean(p["raw_wall"] for p in res["passes"])
    slowdown = statistics.median(p["slowdown"] for p in res["passes"])
    n_jobs, n_passes = res["passes"][0]["jobs"], len(res["passes"])

    print(f"workload {workload}, seed {seed}: {n_jobs} jobs per pass, "
          f"{n_passes} passes, one client, closed loop")
    print(f"  times in reference seconds; mean pass {raw_wall:.4f} s as measured, "
          f"machine slowdown {slowdown:.3f}x (speed.py)")
    for f in failures:
        tag = "known failure" if f["id"] in oracle.KNOWN_FAILURES else "FAILED"
        print(f"  {tag}: pass {f['pass']} {f['id']}: {f['reason']}")
    print(f"  failed_ratio = {len(failures)}/{attempted} jobs")

    if trace:
        t = res["trace"]
        ref_wall = statistics.fmean(p["wall"] for p in ref["passes"])
        metrics = dict(t["metrics"])
        metrics["trace.overhead"] = wall / ref_wall
        traced_total = sum(p["raw_wall"] for p in res["passes"])
        if t["self_total_s"] > traced_total:
            problems.append(f"self times sum to {t['self_total_s']:.3f} s, "
                            f"more than the traced wall {traced_total:.3f} s")
        print(f"  traced wall_s {wall:.4f} s vs untraced {ref_wall:.4f} s: "
              f"overhead {metrics['trace.overhead']:.3f}x; {t['spans']} spans")
        print(f"  census.prefilter_decided = {metrics['census.prefilter_decided']:g} "
              f"of census.probes = {metrics['census.probes']:g} per pass")
        units = {name: unit for name, unit, _ in tracer.per_layer_names()}
        for name, value in metrics.items():
            absent = name in t["absent"] or name.rsplit(".", 1)[0] in t["absent"]
            mark = " (absent)" if absent else ""
            print(f"  {name} = {value:.6g} {units[name]}{mark}")
        out = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    else:
        ok_ratio = (attempted - len(failures)) / attempted
        out = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "job_p50_s": {"value": p50, "unit": "s"},
            "job_max_s": {"value": slowest, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
            "ok_ratio": {"value": ok_ratio, "unit": "ratio"},
        }
        notes = {
            "setup_s": f"median of {sum(SETUP_SPAWNS)} spawns",
            "wall_s": f"mean of {n_passes} passes",
            "job_p50_s": f"median of {attempted - len(failures)} verdicts",
            "job_max_s": f"{slowest_id}",
            "ok_ratio": f"{attempted - len(failures)}/{attempted} accepted",
        }
        for name, m in out.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}"
                  + (f" ({notes[name]})" if name in notes else ""))
    for p in problems:
        print(f"  problem: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": out}), flush=True)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                    help="one workload, or all three in turn (one JSON line each)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "liegrpd" / "cli.py").is_file():
        sys.stderr.write(f"no program source at {SRC}; run from a full checkout\n")
        return 2
    # one core for this process and every child, so the speed probes time the
    # core that runs the jobs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        rc = run_workload(workload, args.seed, args.seconds, args.trace)
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
