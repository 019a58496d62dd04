"""Benchmark for the obstruction checker: four workloads, one process each.

    python3 perfbench/run.py --workload refute --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One run is a closed loop in a single thread: start an interpreter that
imports the package (IMPORT_REPEATS times) and set up the workload
(SETUP_REPEATS times), medians reported, then run passes back to back while
the next one would end within `--seconds`, at least one pass (two with
`--trace 1`). Each pass runs in a child forked from the set-up process, one
at a time, so that every pass starts from the same heap. Times are scaled to
a reference host speed by `clock.Clock`.
Every job's answer is checked against a known answer; a raising or wrong job
counts as failed. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics of
the traced run with `--trace 1`. `--workload all` runs every workload in a
fresh process of its own and prints their results in one table.

The package is imported from `src/` beside this directory; without it the
benchmark exits with status 2 before printing any result.
"""

import argparse
import gc
import json
import math
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAMES = ("refute", "evaluate", "decide", "cli")
DEFAULT_SEED = 1
IMPORT_REPEATS = 15
SETUP_REPEATS = 3


def percentiles(values) -> tuple[float, float, str]:
    """Median, and the highest of p99/p95/p90/p75 with ten samples beyond it.

    With fewer than forty samples no such percentile exists and the maximum
    is reported instead.
    """
    ordered = sorted(values)
    count = len(ordered)
    median = statistics.median(ordered)
    for p in (99, 95, 90, 75):
        rank = max(0, math.ceil(count * p / 100) - 1)  # nearest-rank percentile
        if count - 1 - rank >= 10:
            return median, ordered[rank], f"p{p}"
    return median, ordered[-1], "max"


def _import_package():
    """Put ../src on the path; return a call that starts a fresh interpreter
    and imports the package, as every CLI call does."""
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "obstruction", "__init__.py")):
        print(f"error: no package at {source}/obstruction; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [source, HERE]
    env = dict(os.environ, PYTHONPATH=source)
    return lambda: subprocess.run([sys.executable, "-c", "import obstruction"], env=env, cwd=ROOT, check=True)


def job_medians(passes) -> dict:
    """Each job's median scaled time over the given passes, by job name."""
    times: dict[str, list] = {}
    for jobs in passes:
        for job in jobs:
            times.setdefault(job.name, []).append(job.scaled)
    return {name: statistics.median(values) for name, values in times.items()}


def measure_pass(workload, index: int, traced: bool) -> tuple:
    """Run one pass on a clock of its own: its jobs with scaled times, the
    counts the workload recorded, the traced spans and leaf totals (None when
    untraced), and the peak resident memory of this process in MB."""
    import tracing
    import workloads

    timer = clock.Clock()
    tracer = tracing.Tracer() if traced else None
    rec = workloads.Recorder(timer, tracer, f"pass{index}")
    with timer:
        if traced:
            tracer.install()
        try:
            workload.run_pass(rec)
        finally:
            if traced:
                tracer.uninstall()
    for job in rec.jobs:
        job.scaled = timer.scaled(job.start, job.end)
    spans = (tracer.spans, tracer.leaves) if traced else None
    return rec.jobs, rec.counts, spans, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def pass_in_child(workload, index: int, traced: bool) -> tuple:
    """`measure_pass` in a forked child of this process, which ends before
    this returns.

    Every pass so starts from the heap that set-up left. Run in one process,
    later passes of `refute` were 8–15 % slower than the first, as
    the freed objects of earlier passes scattered the new ones; a run's
    figures then hung on how many passes it held.
    """
    reader, writer = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(reader)
            payload = pickle.dumps(measure_pass(workload, index, traced))
            with os.fdopen(writer, "wb") as pipe:
                pipe.write(payload)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)  # no exit handlers and no cleanup of the parent's state
    os.close(writer)
    try:
        with os.fdopen(reader, "rb") as pipe:
            payload = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"pass {index} failed in its process (wait status {status})")
    return pickle.loads(payload)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start_interpreter = _import_package()
    import tracing
    import workloads

    timer = clock.Clock()
    with timer:
        imports = [timer.timed(start_interpreter) for _ in range(IMPORT_REPEATS)]
        setups = []
        for _ in range(SETUP_REPEATS):
            workload = workloads.WORKLOADS[name]()
            setups.append(timer.timed(lambda: workload.setup(ROOT, seed)))

    tracer = tracing.Tracer()  # every traced pass's spans, for the dump
    plain, traced, layer_rows = [], [], []  # per pass: its jobs; per traced pass: its layers
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    deadline = time.perf_counter() + seconds
    # Passes run while the next one, taking as long as the last, would end
    # by the deadline. With tracing, passes alternate untraced and traced
    # so that both come from the same run; the difference is the overhead.
    index, last = 0, 0.0
    while index < (2 if trace else 1) or time.perf_counter() + last <= deadline:
        began = time.perf_counter()
        with_spans = trace and index % 2 == 1
        # Fork from a collected heap, so that no pass pays for garbage that
        # set-up left.
        gc.collect()
        jobs, counts, spans, rss = pass_in_child(workload, index, with_spans)
        last = time.perf_counter() - began
        peak_rss = max(peak_rss, rss)
        (traced if with_spans else plain).append(jobs)
        if with_spans:
            first_span = tracer.extend(*spans)
            layer_rows.append((tracer.self_times(first_span), tracer.spans[first_span:], counts))
        index += 1

    setup_s = (statistics.median(timer.scaled(*span) for span in imports)
               + statistics.median(timer.scaled(*span) for span in setups))
    jobs = [job for pass_jobs in plain + traced for job in pass_jobs]
    failed = [job for job in jobs if job.problem is not None]
    for job in failed[:10]:
        print(f"FAILED {name} {job.name}: {job.problem}", file=sys.stderr)
    # Every pass runs the same jobs. A job's latency is the median of its
    # scaled times over the run's untraced passes, and a pass's time is the
    # sum of its jobs' latencies.
    layout = plain[0]
    latency = job_medians(plain)
    pass_s = sum(latency[job.name] for job in layout)
    runs = Counter(job.name for pass_jobs in plain for job in pass_jobs)
    sampled = sorted({job.name for job in layout if job.sample})
    job_p50, job_tail, tail_label = percentiles([latency[key] for key in sampled])
    names = {job.name for job in jobs}
    undecided = {job.name for job in jobs if not job.decided}
    each = f"each the median of at least {min(runs.values())} runs"
    samples = {
        "pass_s": f"sum over {len(layout)} jobs, {each}, in {len(plain)} untraced passes",
        "setup_s": f"medians of {IMPORT_REPEATS} start-ups and {SETUP_REPEATS} set-ups",
        "job_p50_ms": f"median of {len(sampled)} jobs, {each}",
        "job_tail_ms": f"{tail_label} of {len(sampled)} jobs, {each}",
    }
    metrics = {
        "pass_s": (pass_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "job_p50_ms": (job_p50 * 1e3, "ms"),
        "job_tail_ms": (job_tail * 1e3, "ms"),
        "decided_ratio": (len(names - undecided) / len(names), "ratio"),
    }
    if trace:
        traced_latency = job_medians(traced)
        traced_pass = sum(traced_latency[job.name] for job in layout)
        metrics = layer_metrics(layer_rows, traced_pass, pass_s)
        samples = {"per-layer": f"median over {len(traced)} traced passes"}
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        tracer.dump(os.path.join(ROOT, ".perfbench", f"spans-{name}-seed{seed}.jsonl"))

    totals = [sum(job.seconds for job in pass_jobs) for pass_jobs in plain]
    print(f"workload {name}  seed {seed}  passes {index}  jobs {len(jobs)}  failed {len(failed)}")
    print(f"  untraced passes {totals[0]:.4f} s first, {min(totals):.4f}..{max(totals):.4f} s")
    for key, (value, unit) in metrics.items():
        print(f"  {key:28s} {value:14.6f} {unit:6s} {samples.get(key, '')}")
    return {
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


# Per-layer metric -> (span name, field of Tracer.self_times: 0 self seconds,
# 1 calls, 2 summed count).
LAYER_SPANS = {
    "tasks.initial_s": ("tasks.initial", 0),
    "tasks.action_s": ("tasks.action", 0),
    "tasks.action_facets": ("tasks.action", 2),
    "tasks.product_s": ("tasks.product", 0),
    "tasks.product_facets": ("tasks.product", 2),
    "complexes.canon_s": ("complexes.canon", 0),
    "complexes.to_json_s": ("complexes.to_json", 0),
    "complexes.from_json_s": ("complexes.from_json", 0),
    "models.induce_s": ("models.induce", 0),
    "models.validity_s": ("models.validity", 0),
    "models.counterexamples_s": ("models.counterexamples", 0),
    "models.satisfies_s": ("models.satisfies", 0),
    "models.satisfies_calls": ("models.satisfies", 1),
    "models.formulas_checked": ("models.validity", 1),
    "formulas.parse_s": ("formulas.parse", 0),
    "formulas.render_s": ("formulas.render", 0),
    "generators.formula_s": ("generators.formula", 0),
    "generators.formula_nodes": ("generators.formula", 2),
    "generators.verify_s": ("generators.verify", 0),
    "solver.search_s": ("solver.search", 0),
    "solver.nodes": ("solver.search", 2),
    "solver.knowledge_check_s": ("solver.knowledge_check", 0),
    "cli.build_s": ("cli.build", 0),
    "cli.check_s": ("cli.check", 0),
    "cli.export_s": ("cli.export", 0),
    "cli.obstruct_s": ("cli.obstruct", 0),
    "cli.solve_s": ("cli.solve", 0),
}


def layer_metrics(rows, traced_pass, plain_pass) -> dict:
    """Per-layer metrics: medians over traced passes of per-pass values.

    `rows` holds, per traced pass, its self times, its spans and the counts
    the workload recorded. A layer the workload never calls reads 0.
    """

    def med(values):
        return statistics.median(values) if values else 0.0

    def ratio(top, bottom):
        return top / bottom if bottom else 0.0

    metrics = {}
    for key, (span, column) in LAYER_SPANS.items():
        unit = "s" if column == 0 else "count"
        metrics[key] = (med([times.get(span, (0.0, 0, 0))[column] for times, _, _ in rows]), unit)
    product = [times.get("tasks.product", (0.0, 0, 0)) for times, _, _ in rows]
    metrics["tasks.product_facets_per_s"] = (med([ratio(f, s) for s, _, f in product]), "1/s")
    search = [times.get("solver.search", (0.0, 0, 0)) for times, _, _ in rows]
    metrics["solver.nodes_per_s"] = (med([ratio(nodes, s) for s, _, nodes in search]), "1/s")
    searches = [[span for span in spans if span.name == "solver.search"] for _, spans, _ in rows]
    metrics["solver.nodes_to_verdict"] = (
        med([sum(s.count for s in found if s.tag != "resource-limit") for found in searches]), "count")
    metrics["solver.budget_stops"] = (
        med([sum(s.tag == "resource-limit" for s in found) for found in searches]), "count")
    metrics["cli.json_bytes"] = (med([counts.get("cli.json_bytes", 0) for _, _, counts in rows]), "bytes")
    metrics["trace.overhead_pct"] = (100 * (traced_pass - plain_pass) / plain_pass, "%")
    return metrics


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in a fresh process, so none inherits another's memory."""
    ok = True
    for name in NAMES:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
        ok = ok and result is not None and result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
