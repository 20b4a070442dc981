"""structlogic benchmark: time to verdict on three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is iso-enum, eval-sweep, class-pipeline, or `all` (the three in turn,
one table row each).  A run repeats passes of the workload, each pass in a
fresh interpreter, until the next pass would end after S seconds (at least
two passes).  Every pass sees the same seeded inputs, so its caches start
cold and its work is fixed by the seed.  Each verdict is checked against a
known answer after the pass; a job that raises, exits with the wrong code,
misses its deadline or answers wrongly is a failed job.

--trace 0 prints the end-to-end metrics: set-up time (interpreter launch
until the first job can start), pass wall time, median job time, peak RSS.
--trace 1 alternates untraced and traced passes and prints per-layer
metrics from the traced ones, plus the tracing overhead (traced minus
untraced wall time).  The last stdout line is one JSON object holding the
metrics that BENCHMARK.json lists for the mode.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("iso-enum", "eval-sweep", "class-pipeline")
MIN_PASSES = 2
MIN_SETUPS = 9
# every run, set-up included, must end well inside three minutes
RUN_LIMIT_S = 150.0
P90_MIN_SAMPLES = 100

# Spans named here make up formats.parse: file text to library objects.
PARSE_SPANS = ("formats.parse_", "formats.vocab_from_node", "formats.structure_from_node",
               "formats.formula_from_node", "formats.theory_from_node", "formats.term_from_node",
               "formats.decorated_from_node", "sexpr.parse", "sexpr.tokenize")


class RunError(Exception):
    pass


def median(values):
    return statistics.median(values) if values else 0.0


def run_pass(workload, seed, trace, run_dir, index, deadline, setup_only=False) -> dict:
    """Start one worker, time its set-up, wait for its result file."""
    out_path = os.path.join(run_dir, f"pass-{index}.json")
    err_path = os.path.join(run_dir, f"pass-{index}.stderr")
    launched = time.monotonic()
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
            "1" if trace else "0", out_path, repr(deadline)]
    # a fixed hash seed makes every pass (and its CLI children) iterate sets
    # of strings in the same order, so passes of one seed do identical work
    env = dict(os.environ, PYTHONHASHSEED="0")
    with open(err_path, "wb") as err:
        proc = subprocess.Popen([*argv, *(["setup-only"] if setup_only else [])],
                                stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], max(1.0, deadline - launched))
            line = proc.stdout.readline() if ready else b""
            setup_s = time.monotonic() - launched
            proc.wait(timeout=max(1.0, deadline + 15.0 - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read().strip().splitlines()[-3:]
        return {"traced": trace, "error": f"worker exited {proc.returncode}: {' | '.join(tail)}"}
    result = {"setup_s": setup_s, "traced": trace}
    if setup_only:
        return result
    with open(out_path, encoding="utf-8") as fh:
        result.update(json.load(fh))
    started = [r for r in result["results"] if r["end"] > 0]
    result["wall_s"] = max(r["end"] for r in started) - min(r["start"] for r in started)
    return result


def run_workload(workload, seed, seconds, trace) -> dict:
    run_dir = os.path.join(HERE, "out", workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    passes = []
    jobs_per_pass = 1
    while True:
        traced = trace and len(passes) % 2 == 1
        result = run_pass(workload, seed, traced, run_dir, len(passes), deadline)
        if "error" in result:
            # a worker that dies or hangs fails every job of its pass
            result["results"] = [{"name": "worker", "start": 0.0, "end": 0.0,
                                  "reason": result["error"]}] * jobs_per_pass
        else:
            jobs_per_pass = len(result["results"])
        passes.append(result)
        if "error" in result and not any("wall_s" in p for p in passes):
            break
        elapsed = time.monotonic() - t0
        per_pass = elapsed / len(passes)
        if len(passes) >= MIN_PASSES and elapsed + per_pass > seconds:
            break
        if elapsed + per_pass > RUN_LIMIT_S - 20:
            break
    measured = [p for p in passes if "wall_s" in p]
    if not any(p["traced"] == trace for p in measured) or not any(not p["traced"] for p in measured):
        errors = sorted({p["error"] for p in passes if "error" in p})
        raise RunError(f"no pass of {workload} completed: {errors}")
    setups = [p["setup_s"] for p in measured if not p["traced"]]
    while not trace and len(setups) < MIN_SETUPS:
        result = run_pass(workload, seed, False, run_dir, f"setup-{len(setups)}", deadline,
                          setup_only=True)
        if "error" in result:
            raise RunError(f"set-up of {workload} failed: {result['error']}")
        setups.append(result["setup_s"])
    return {"workload": workload, "seed": seed, "passes": passes, "setups": setups}


# ---------------------------------------------------------------------------
# metrics


def measured(run, traced):
    return [p for p in run["passes"] if "wall_s" in p and p["traced"] == traced]


def end_to_end(run) -> dict:
    plain = measured(run, False)
    jobs = sorted(r["end"] - r["start"] for p in plain for r in p["results"] if r["end"] > 0)
    out = {
        "setup_s": (median(run["setups"]), "s"),
        "wall_s": (median([p["wall_s"] for p in plain]), "s"),
        "job_p50_s": (median(jobs), "s"),
        "peak_rss_mb": (median([p["rss_mb"] for p in plain]), "MB"),
    }
    if len(jobs) >= P90_MIN_SAMPLES:
        out["job_p90_s"] = (statistics.quantiles(jobs, n=10)[-1], "s")
    attempted, failed = counts(run)
    out["failed_share"] = (failed / attempted, "ratio")
    return out


def counts(run) -> tuple[int, int]:
    results = [r for p in run["passes"] for r in p["results"]]
    return len(results), sum(1 for r in results if r["reason"] is not None)


def layer_metrics(trace: dict) -> dict:
    """Per-layer figures of one traced pass, by the names BENCHMARK.json uses."""
    fns = trace["functions"]

    def f(name, key):
        return fns.get(name, {}).get(key, 0)

    out = {}
    small, large = "structures.normalize.small", "structures.normalize.large"
    out["structures.normalize.calls"] = (f(small, "calls") + f(large, "calls"), "count")
    out[small + ".self_s"] = (f(small, "self_s"), "s")
    out[large + ".self_s"] = (f(large, "self_s"), "s")
    out["structures.enumerate_structures.self_s"] = (f("structures.enumerate_structures", "self_s"), "s")
    types = sum(trace["yields"].get(n, 0) for n in ("structures.enumerate_structures",
                                                    "semantics.enumerate_models"))
    enum_norm = trace["counts"].get("structures.enumerate.normalize", 0)
    out["structures.enumerate.types"] = (types, "count")
    if types:  # ratios are printed only where their base is not zero
        out["structures.enumerate.normalize_per_type"] = (enum_norm / types, "ratio")
    for name in ("structures.find_isomorphism", "semantics.eval", "semantics.solution_set",
                 "semantics.models", "semantics.elem_F", "semantics.elem_F_star",
                 "classspec.le", "classspec.contains", "closure.cl",
                 "axiomatizer.functorial_expansion"):
        out[name + ".calls"] = (f(name, "calls"), "count")
        out[name + ".self_s"] = (f(name, "self_s"), "s")
    out["semantics.elem_F_star.incl_s"] = (f("semantics.elem_F_star", "incl_s"), "s")
    le_calls = f("classspec.le", "calls")
    if le_calls:
        out["classspec.le.true_ratio"] = (trace["truthy"].get("classspec.le", 0) / le_calls, "ratio")
    out["classspec.members.self_s"] = (f("classspec.members", "self_s"), "s")
    out["closure.strong_submodels.calls"] = (f("closure.strong_submodels", "calls"), "count")
    out["closure.enumerate_DK.self_s"] = (f("closure.enumerate_DK", "self_s"), "s")
    out["axiomatizer.expand.calls"] = (f("axiomatizer.expand", "calls"), "count")
    for name in ("emit_aq_theory", "verify_presentation", "galois_morleyization",
                 "tarski_universal_theory"):
        out[f"axiomatizer.{name}.self_s"] = (f(f"axiomatizer.{name}", "self_s"), "s")
    out["translate.qstruct_to_counting.self_s"] = (f("translate.qstruct_to_counting", "self_s"), "s")
    out["syntax.subformula_closure.self_s"] = (f("syntax.subformula_closure", "self_s"), "s")
    out["syntax.free_vars.calls"] = (trace["counts"].get("syntax.free_vars", 0), "count")
    out["formats.parse.self_s"] = (
        sum(v["self_s"] for k, v in fns.items() if k.startswith(PARSE_SPANS)), "s")
    out["reports.render.self_s"] = (f("reports.render", "self_s"), "s")
    if trace["startup_s"]:  # class-pipeline only: the other workloads run no CLI
        out["cli.startup_s"] = (median(trace["startup_s"]), "s")
    hits, misses = cache_totals(trace["cache"])
    out["cache.hits"] = (hits, "count")
    out["cache.misses"] = (misses, "count")
    for layer, (h, m) in sorted(trace["cache"].items()):
        out[f"{layer}.cache.hits"] = (h, "count")
        out[f"{layer}.cache.misses"] = (m, "count")
    errors = {}
    for key, n in trace["errors"].items():
        layer = key.split(".", 1)[0]
        errors[layer] = errors.get(layer, 0) + n
    out["errors"] = (sum(errors.values()), "count")
    for layer, n in sorted(errors.items()):
        out[f"{layer}.errors"] = (n, "count")
    for key, n in sorted(trace["errors"].items()):
        out[key] = (n, "count")
    out["trace.spans"] = (trace["spans"], "count")
    return out


def cache_totals(cache: dict) -> tuple[int, int]:
    return sum(h for h, _ in cache.values()), sum(m for _, m in cache.values())


def per_layer(run) -> dict:
    traced, plain = measured(run, True), measured(run, False)
    each = [layer_metrics(p["trace"]) for p in traced]
    out = {}
    for m in each:
        for name, (_, unit) in m.items():
            out[name] = (median([m2[name][0] if name in m2 else 0 for m2 in each]), unit)
    traced_wall = median([p["wall_s"] for p in traced])
    plain_wall = median([p["wall_s"] for p in plain])
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    out["trace.overhead_share"] = ((traced_wall - plain_wall) / plain_wall, "ratio")
    return out


def top_self_time(run, n=8):
    totals = {}
    traced = measured(run, True)
    for p in traced:
        for name, f in p["trace"]["functions"].items():
            if not name.startswith("bench."):
                totals[name] = totals.get(name, 0.0) + f["self_s"] / len(traced)
    return sorted(totals.items(), key=lambda kv: -kv[1])[:n]


# ---------------------------------------------------------------------------
# report


def consistency(run) -> list[str]:
    """Same seed, same inputs and verdicts: every pass must agree."""
    problems = []
    for key in ("inputs_digest", "verdicts_digest"):
        values = {p[key] for p in run["passes"] if "wall_s" in p}
        if len(values) != 1:
            problems.append(f"{key} differs between passes: {sorted(values)}")
    return problems


def fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report(run, trace, wanted) -> dict:
    workload = run["workload"]
    first = next(p for p in run["passes"] if "wall_s" in p)
    attempted, failed = counts(run)
    print(f"workload {workload} seed {run['seed']}: {len(run['passes'])} passes, "
          f"{len(first['results'])} jobs per pass, {len(run['setups'])} set-ups")
    print(f"  inputs sha256 {first['inputs_digest']}")
    print(f"  verdicts sha256 {first['verdicts_digest']}")
    if "true_share" in first:
        trues, total = first["true_share"]
        print(f"  true verdicts {trues}/{total} = {trues / total:.3f}")
    if "cache" in first:  # in-process workloads: the jobs' own lru cache use
        hits, misses = cache_totals(first["cache"])
        layers = ", ".join(f"{layer} {h}/{m}" for layer, (h, m) in sorted(first["cache"].items()))
        print(f"  lru cache hits/misses {hits}/{misses}, hit share "
              f"{hits / max(1, hits + misses):.3f} ({layers})")
    problems = consistency(run)
    for p in run["passes"]:
        for r in p["results"]:
            if r["reason"] is not None:
                problems.append(f"job {r['name']}: {r['reason']}")
    for line in problems[:10]:
        print(f"  FAILED {line}")
    print(f"  failed_share {failed / attempted:.6g} ({failed} of {attempted} jobs attempted)")
    metrics = per_layer(run) if trace else end_to_end(run)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {fmt(value)} {unit}")
    if trace:
        print("  largest self time per traced pass:")
        for name, seconds in top_self_time(run):
            print(f"    {name:45s} {seconds:9.4f} s")
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise RunError(f"metrics missing from the {workload} run: {missing}")
    return metrics, {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }


def table(rows: dict) -> None:
    names = ["setup_s", "wall_s", "job_p50_s", "job_p90_s", "peak_rss_mb", "failed_share"]
    units = ["s", "s", "s", "s", "MB", "ratio"]
    print(f"{'workload':16s}" + "".join(f"{f'{n} ({u})':>22s}" for n, u in zip(names, units)))
    for workload, (run, metrics) in rows.items():
        cells = []
        for name in names:
            if name not in metrics:
                cells.append("omitted (<100 jobs)")
            elif name == "failed_share":
                attempted, failed = counts(run)
                cells.append(f"{metrics[name][0]:.3g} ({failed}/{attempted})")
            else:
                cells.append(fmt(metrics[name][0]))
        print(f"{workload:16s}" + "".join(f"{c:>22s}" for c in cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    for needed in ("src/structlogic/__init__.py", "tests/oracles.py", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} is missing; run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    try:
        if args.workload != "all":
            run = run_workload(args.workload, args.seed, args.seconds, args.trace == 1)
            _, result = report(run, args.trace == 1, wanted)
        else:
            rows, results = {}, {}
            for workload in WORKLOADS:
                run = run_workload(workload, args.seed, args.seconds, args.trace == 1)
                metrics, results[workload] = report(run, args.trace == 1, wanted)
                rows[workload] = (run, metrics)
            if not args.trace:
                table(rows)
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {w: r["metrics"] for w, r in results.items()},
            }
    except RunError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
