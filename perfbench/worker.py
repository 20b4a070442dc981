"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE OUT DEADLINE [setup-only]

Set-up (package import plus building the seeded inputs) ends with a `ready`
line on stdout, which is when the parent stops its set-up clock.  Then every
job runs once, in order; iso-enum and eval-sweep run in this process,
class-pipeline starts one child interpreter per job and never two at once.
Verdicts are checked after the last job, outside the timed region, and the
result goes to OUT as JSON.  No job starts after DEADLINE, a value of the
parent's time.monotonic().
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]


def cache_delta(before: dict, after: dict) -> dict:
    return {layer: [h - before.get(layer, [0, 0])[0], m - before.get(layer, [0, 0])[1]]
            for layer, (h, m) in after.items()}


def run_in_process(inputs, tracer) -> dict:
    from tracer import cache_counts

    results = []
    verdicts = {}
    caches_before = cache_counts()
    for job in inputs.jobs:
        span = tracer.open("bench.job") if tracer else None
        t0 = time.perf_counter()
        try:
            verdict, reason = job.run(), None
        except Exception as exc:  # a job that raises is a failed job, not a crash
            verdict, reason = None, f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if span is not None:
            tracer.close(span)
        if reason is None and t1 - t0 > job.deadline_s:
            reason = f"missed its {job.deadline_s:.0f}s deadline"
        verdicts[job.name] = verdict
        results.append({"name": job.name, "start": t0, "end": t1, "reason": reason})
    # cache use of the jobs alone, read before the checks evaluate anything
    caches = cache_delta(caches_before, cache_counts())
    # checks run after the timed pass and outside any traced span
    wrong = inputs.check(verdicts)
    for r in results:
        if r["reason"] is None and r["name"] in wrong:
            r["reason"] = wrong[r["name"]]
    out = {
        "results": results,
        "verdicts_digest": hashlib.sha256(
            repr([(job.name, verdicts[job.name]) for job in inputs.jobs]).encode()
        ).hexdigest(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cache": caches,
    }
    if inputs.true_share is not None:
        out["true_share"] = inputs.true_share(verdicts)
    return out


def run_children(jobs, trace_dir, deadline) -> dict:
    """class-pipeline: each job is its own interpreter, started one at a time."""
    import known

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    results = []
    digests = []
    summaries = []
    for job in jobs:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            results.append({"name": job.name, "start": 0.0, "end": 0.0,
                            "reason": "not started: the run's deadline passed"})
            continue
        launch = os.path.join(HERE, "launch.py")
        prefix = os.path.join(trace_dir, job.name) if trace_dir else None
        t0 = time.perf_counter()
        if trace_dir:
            command = job.argv if job.library else ["cli", *job.argv]
            argv = [sys.executable, launch, "--trace", prefix, "--launched", repr(time.monotonic()), *command]
        elif job.library:
            argv = [sys.executable, launch, *job.argv]
        else:
            argv = [sys.executable, "-m", "structlogic.cli", *job.argv]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
        try:
            stdout, stderr = proc.communicate(timeout=min(job.deadline_s, remaining))
            reason = None
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
            reason = f"killed at its {min(job.deadline_s, remaining):.0f}s deadline"
        t1 = time.perf_counter()
        text = stdout.decode("utf-8", "replace")
        sha = hashlib.sha256(stdout).hexdigest()
        digests.append((job.name, proc.returncode, sha))
        if reason is None and proc.returncode != job.expect_exit:
            last = stderr.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
            reason = f"exit {proc.returncode}, expected {job.expect_exit}: {last[0][:200]}"
        if reason is None and job.check is not None:
            reason = job.check(text)
        want_sha = known.STDOUT_SHA256.get(job.name)
        if reason is None and want_sha and sha != want_sha:
            reason = f"stdout sha256 {sha} differs from the recorded {want_sha}"
        results.append({"name": job.name, "start": t0, "end": t1, "reason": reason, "sha256": sha})
        if prefix and os.path.exists(prefix + ".json"):
            with open(prefix + ".json", encoding="utf-8") as fh:
                summaries.append(json.load(fh))
    return {
        "results": results,
        "verdicts_digest": hashlib.sha256(repr(digests).encode()).hexdigest(),
        "rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "trace": merge(summaries) if trace_dir else None,
    }


def merge(summaries: list[dict]) -> dict:
    """Sum per-process trace summaries; startup is kept per process."""
    out = {"functions": {}, "counts": {}, "errors": {}, "truthy": {}, "yields": {},
           "spans": 0, "startup_s": [], "cache": {}}
    for s in summaries:
        for name, f in s["functions"].items():
            acc = out["functions"].setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            for key in acc:
                acc[key] += f[key]
        for field in ("counts", "errors", "truthy", "yields"):
            for name, n in s[field].items():
                out[field][name] = out[field].get(name, 0) + n
        out["spans"] += s["spans"]
        for layer, (hits, misses) in s["cache"].items():
            acc = out["cache"].setdefault(layer, [0, 0])
            acc[0] += hits
            acc[1] += misses
        if s.get("startup_s") is not None:
            out["startup_s"].append(s["startup_s"])
    return out


def main(argv: list[str]) -> int:
    workload, seed, trace, out_path, deadline = argv[:5]
    seed, trace, deadline = int(seed), trace == "1", float(deadline)
    setup_only = argv[5:] == ["setup-only"]

    tracer = None
    import structlogic  # noqa: F401  (the package import is part of set-up)

    if trace and workload != "class-pipeline":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    setup_span = tracer.open("bench.setup") if tracer else None
    trace_dir = None
    if workload == "iso-enum":
        inputs = workloads.iso_enum(seed)
    elif workload == "eval-sweep":
        inputs = workloads.eval_sweep(seed)
    else:
        workdir = os.path.join(os.path.dirname(out_path), "inputs")
        os.makedirs(workdir, exist_ok=True)
        jobs, inputs_digest = workloads.class_pipeline(seed, workdir)
        if trace:
            trace_dir = out_path[: -len(".json")] + "-spans"
            os.makedirs(trace_dir, exist_ok=True)
    if setup_span is not None:
        tracer.close(setup_span)
    print("ready", flush=True)
    if setup_only:
        return 0

    if workload == "class-pipeline":
        result = run_children(jobs, trace_dir, deadline)
        result["inputs_digest"] = inputs_digest
    else:
        result = run_in_process(inputs, tracer)
        result["inputs_digest"] = inputs.digest
        if tracer is not None:
            summary = tracer.summary()
            summary["startup_s"] = []  # no CLI runs in this process
            summary["cache"] = result["cache"]
            result["trace"] = summary
            tracer.write(out_path[: -len(".json")] + ".spans")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
