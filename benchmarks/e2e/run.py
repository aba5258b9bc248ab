"""The repo's end-to-end benchmark: five workloads, checked outputs, every
metric printed by name with its unit.  See README.md in this directory.

Three modes:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One measurement run of one workload in this process (the mode
    ``BENCHMARK.json``'s command is driven in).  Set-up + timed region are
    repeated as *trials* until ``S`` seconds have passed (never fewer than
    the scale's ``min_trials``); host metrics are the median over trials,
    sim metrics must be identical on every trial.  ``--trace 1`` measures
    the per-layer metrics instead of the end-to-end ones.  The last line of
    standard output is the result as one JSON object.

``run.py [--workloads a,b] [--repeats R] [--trace 1] [--output FILE]``
    A full set: every workload ``R`` times, each repetition a fresh child
    process of the first mode, summarised as median and quartiles.
    ``--output`` appends the set to ``FILE`` and one line to
    ``results/history.jsonl``.

``run.py --compare A.json B.json``
    One row per (workload, metric) with a verdict, for PR descriptions.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

IMPORT_STARTED = time.perf_counter()
try:
    import layers
    import workloads
except ImportError as error:  # run outside a checkout of the repo: nothing to measure
    sys.exit(f"benchmarks/e2e: cannot import the system under test ({error})")
IMPORT_S = time.perf_counter() - IMPORT_STARTED

SCHEMA = "e2e-bench/v1"
DEFAULT_SEED = 7
DEFAULT_SECONDS = 10
DEFAULT_REPEATS = 3
HISTORY = HERE / "results" / "history.jsonl"
#: Sim metrics are seeded virtual-time quantities: equal means equal.
EXACT = 1e-9

#: (name, unit, better, bound, kind).  ``bound`` is the share of the parent's
#: median by which the metric may worsen (what ``BENCHMARK.json`` gates on;
#: within one seed the sim metrics compare exactly, see ``--compare``).
#: ``failed_ops_ratio`` is always 0 on a correct run, so it is reported and
#: compared here but carried in ``BENCHMARK.json`` by the result line's
#: ``attempted`` / ``failed`` instead of as a bounded metric.
END_TO_END: list[tuple[str, str, str, float, str]] = [
    ("setup_s", "s", "lower", 0.25, "host"),
    ("host_us_per_op", "us", "lower", 0.25, "host"),
    ("peak_rss_mib", "MiB", "lower", 0.10, "host"),
    ("sim_latency_p50_ms", "ms", "lower", 0.10, "sim"),
    ("sim_latency_p99_ms", "ms", "lower", 0.10, "sim"),
    ("wire_bytes_per_op", "B", "lower", 0.10, "sim"),
    ("failed_ops_ratio", "ratio", "lower", 0.0, "sim"),
]


# ------------------------------------------------------------ one measurement
def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_trial(name: str, scale: str, seed: int, calibrator, **trial_options):
    """One trial of a workload; returns ``(trial, result)``."""
    trial = workloads.Trial(calibrator, **trial_options)
    result = workloads.WORKLOADS[name][0](trial, workloads.SCALES[scale][name], seed)
    return trial, result


def trial_record(trial, result) -> dict:
    ops = max(1, result.completed)
    return {
        "setup_s": trial.setup_s,
        "host_us_per_op": trial.timed_s / ops * 1e6,
        "setup_wall_s": trial.setup_wall_s,
        "wall_us_per_op": trial.timed_wall_s / ops * 1e6,
        "machine_speed": trial.speed(trial.TIMED),
        "attempted": result.attempted,
        "completed": result.completed,
        "latency_samples": result.latency_samples,
        "checks": result.checks,
        "sim": result.sim_metrics(),
    }


def measure_end_to_end(name: str, scale: str, seed: int, seconds: float, calibrator) -> dict:
    """Trials until ``seconds`` have passed; end-to-end metrics."""
    min_trials = int(workloads.SCALES[scale]["run"]["min_trials"])
    started = time.perf_counter()
    records = []
    while len(records) < min_trials or time.perf_counter() - started < seconds:
        records.append(trial_record(*run_trial(name, scale, seed, calibrator)))
        gc.collect()
    sim = records[0]["sim"]
    deterministic = all(record["sim"] == sim for record in records)
    checks = dict(records[0]["checks"], sim_metrics_repeat_exactly=deterministic)
    for record in records[1:]:
        for check, passed in record["checks"].items():
            checks[check] = checks[check] and passed
    metrics = {
        "setup_s": statistics.median(record["setup_s"] for record in records),
        "host_us_per_op": statistics.median(record["host_us_per_op"] for record in records),
        "peak_rss_mib": peak_rss_mib(),
        **sim,
    }
    return {
        "metrics": metrics,
        "attempted": sum(record["attempted"] for record in records),
        "completed": sum(record["completed"] for record in records),
        "checks": checks,
        "trials": len(records),
        "latency_samples": records[0]["latency_samples"],
        "wall_us_per_op": statistics.median(record["wall_us_per_op"] for record in records),
        "setup_wall_s": statistics.median(record["setup_wall_s"] for record in records),
        "machine_speed": statistics.median(record["machine_speed"] for record in records),
    }


def measure_layers(name: str, scale: str, seed: int, calibrator) -> dict:
    """One untraced trial (counts, phase spans), one profiled trial (self
    time by layer) and the unit-cost drivers; per-layer metrics."""
    plain, plain_result = run_trial(name, scale, seed, calibrator, tracing=True)
    gc.collect()
    profiler = layers.new_profiler()
    traced, traced_result = run_trial(name, scale, seed, calibrator, profiler=profiler)
    seconds, calls = layers.self_time_by_layer(profiler)
    total = sum(seconds.values())
    ops = max(1, traced_result.completed)
    metrics = {f"{layer}.self_share": seconds[layer] / total for layer in layers.LAYERS}
    metrics.update({f"{layer}.calls_per_op": calls[layer] / ops for layer in layers.LAYERS})
    metrics["trace.timed_s"] = traced.timed_wall_s
    metrics["trace.overhead_ratio"] = traced.timed_s / plain.timed_s
    metrics["trace.self_sum_ratio"] = total / traced.timed_wall_s
    metrics["harness.import_s"] = IMPORT_S
    metrics["harness.wall_us_per_op"] = plain.timed_wall_s / max(1, plain_result.completed) * 1e6
    phases = plain.phase_seconds()
    trial_wall = max(span.end for span in plain.spans)
    for phase in layers.PHASES:
        metrics[f"phase.{phase}_share"] = phases.get(phase, 0.0) / trial_wall
    metrics.update(layers.count_metrics(plain_result.counts))
    metrics.update(layers.unit_costs())
    checks = dict(plain_result.checks)
    checks["sim_metrics_repeat_exactly"] = plain_result.sim_metrics() == traced_result.sim_metrics()
    for check, passed in traced_result.checks.items():
        checks[check] = checks[check] and passed
    return {
        "metrics": metrics,
        "attempted": plain_result.attempted + traced_result.attempted,
        "completed": plain_result.completed + traced_result.completed,
        "checks": checks,
        "trials": 2,
        "self_s": seconds,
        "spans": [vars(span) for span in plain.spans],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> int:
    """The single-workload mode.  Prints every metric by name with its unit,
    a ``detail:`` line for the set mode and, last, the result line; returns
    the process exit code."""
    calibrator = workloads.Calibrator()
    # A small replica first: fills process-wide memos and lazy imports so
    # the first trial is not the odd one out.
    run_trial(name, "smoke", seed, calibrator)
    gc.collect()
    if trace:
        measured = measure_layers(name, scale, seed, calibrator)
        specs = layers.PER_LAYER
    else:
        measured = measure_end_to_end(name, scale, seed, seconds, calibrator)
        specs = [spec[:3] for spec in END_TO_END]
    metrics = measured["metrics"]
    correct = all(measured["checks"].values())
    failed = measured["attempted"] - measured["completed"]
    if not trace and not correct:
        metrics["failed_ops_ratio"] = 1.0
    for metric, unit, _ in specs:
        print(f"{name:12s} {metric:44s} {metrics[metric]:16.6f} {unit}")
    for check, passed in measured["checks"].items():
        print(f"{name:12s} check {check:40s} {'ok' if passed else 'FAILED'}")
    print("detail: " + json.dumps({**measured, "workload": name, "seed": seed, "scale": scale}))
    result = {
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit, _ in specs
            if metric != "failed_ops_ratio"  # carried by attempted / failed
        },
    }
    print(json.dumps(result))
    return 0 if correct and failed == 0 else 1


# ------------------------------------------------------------------- full set
def fingerprint() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def commit_hash() -> str:
    """``HEAD``, suffixed ``-dirty`` when the working tree differs from it."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=HERE, capture_output=True, text=True, check=True,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def quartiles(values: list[float]) -> dict[str, float]:
    """Median with quartiles and sample count of one metric's runs."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def child(name: str, args, trace: bool) -> dict:
    """One repetition in a fresh process (own RSS high-water mark, cold
    process-wide memos); returns its ``detail`` document."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "1" if trace else "0", "--scale", args.scale,
    ]  # fmt: skip
    finished = subprocess.run(command, capture_output=True, text=True)
    details = [line for line in finished.stdout.splitlines() if line.startswith("detail: ")]
    if not details:
        raise RuntimeError(f"{name}: child produced no result\n{finished.stdout}{finished.stderr}")
    detail = json.loads(details[-1][len("detail: "):])
    detail["exit_code"] = finished.returncode
    return detail


def run_set(args) -> int:
    names = args.workloads.split(",") if args.workloads else list(workloads.WORKLOADS)
    document = {
        "schema": SCHEMA,
        "commit": commit_hash(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "scale": args.scale,
        "scale_table": workloads.SCALES[args.scale],
        "fingerprint": fingerprint(),
        "workloads": {},
    }
    print(f"# {SCHEMA}  seed {args.seed}  scale {args.scale}: {json.dumps(document['scale_table'])}")
    failures = 0
    for name in names:
        runs = [child(name, args, trace=False) for _ in range(args.repeats)]
        summary = {
            metric: quartiles([run["metrics"][metric] for run in runs])
            for metric, *_ in END_TO_END
        }
        entry = {"why": workloads.WORKLOADS[name][1], "runs": runs, "summary": summary}
        problems = [f"run {i} exit code {run['exit_code']}" for i, run in enumerate(runs) if run["exit_code"]]
        for metric, unit, _, _, kind in END_TO_END:
            stats = summary[metric]
            if kind == "sim" and stats["q1"] != stats["q3"]:
                problems.append(f"sim metric {metric} differs between repetitions")
            print(
                f"{name:12s} {metric:20s} {stats['median']:14.4f} {unit:5s} [{kind}] "
                f"q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  n {stats['n']}"
            )
        print(
            f"{name:12s} latency samples {runs[0]['latency_samples']}, trials per run "
            f"{[run['trials'] for run in runs]}, machine speed "
            f"{[round(run['machine_speed'], 2) for run in runs]}"
        )
        if args.trace:
            entry["traced"] = traced = child(name, args, trace=True)
            if traced["exit_code"]:
                problems.append(f"traced run exit code {traced['exit_code']}")
            for metric, unit, _ in layers.PER_LAYER:
                print(f"{name:12s}   {metric:44s} {traced['metrics'][metric]:16.6f} {unit}")
        for problem in problems:
            print(f"{name:12s} FAILED: {problem}")
        failures += len(problems)
        document["workloads"][name] = entry
    if args.output:
        append_set(Path(args.output), document)
    return 1 if failures else 0


def append_set(path: Path, document: dict) -> None:
    """Append the set to ``path`` and its medians to the history."""
    sets = json.loads(path.read_text())["sets"] if path.exists() else []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"schema": SCHEMA, "sets": sets + [document]}, indent=1) + "\n")
    line = {
        key: document[key] for key in ("commit", "date", "seed", "scale", "fingerprint")
    }
    line["medians"] = {
        name: {metric: stats["median"] for metric, stats in entry["summary"].items()}
        for name, entry in document["workloads"].items()
    }
    HISTORY.parent.mkdir(parents=True, exist_ok=True)
    with HISTORY.open("a") as history:
        history.write(json.dumps(line) + "\n")


# -------------------------------------------------------------------- compare
def pooled(path: str) -> tuple[dict, dict, set]:
    """Per workload: every run's end-to-end metrics and the last traced
    run's per-layer metrics, pooled over the file's sets; and the seeds."""
    runs: dict[str, dict[str, list[float]]] = {}
    traced: dict[str, dict[str, float]] = {}
    seeds = set()
    for document in json.loads(Path(path).read_text())["sets"]:
        seeds.add(document["seed"])
        for name, entry in document["workloads"].items():
            for run in entry["runs"]:
                for metric, value in run["metrics"].items():
                    runs.setdefault(name, {}).setdefault(metric, []).append(value)
            if "traced" in entry:
                traced[name] = entry["traced"]["metrics"]
    return runs, traced, seeds


def verdict(old: list[float], new: list[float], better: str, bound: float, kind: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    old_median, new_median = statistics.median(old), statistics.median(new)
    worse_by = sign * (new_median - old_median) / abs(old_median) if old_median else sign * new_median
    if kind == "sim":
        return "same" if abs(worse_by) <= EXACT else ("worse" if worse_by > 0 else "better")
    if all(sign * b < sign * a for a in old for b in new):
        return "better"
    if worse_by > bound:
        return "worse"
    spread = max(
        (q["q3"] - q["q1"]) / abs(q["median"]) if q["median"] else 0.0
        for q in (quartiles(old), quartiles(new))
    )
    return "unresolved" if spread > bound else "same"


def compare(old_path: str, new_path: str) -> int:
    old_runs, old_traced, old_seeds = pooled(old_path)
    new_runs, new_traced, new_seeds = pooled(new_path)
    if old_seeds != new_seeds:
        print(f"# seeds differ ({sorted(old_seeds)} vs {sorted(new_seeds)}): sim metrics are not comparable")
    print(f"{'workload':12s} {'metric':20s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} {'delta':>9s} {'bound':>6s} verdict")
    worse = 0
    for name in old_runs:
        if name not in new_runs:
            continue
        for metric, _, better, bound, kind in END_TO_END:
            a, b = old_runs[name][metric], new_runs[name][metric]
            qa, qb = quartiles(a), quartiles(b)
            delta = (qb["median"] - qa["median"]) / abs(qa["median"]) if qa["median"] else 0.0
            outcome = verdict(a, b, better, bound, kind)
            worse += outcome == "worse"
            print(
                f"{name:12s} {metric:20s} "
                f"{qa['median']:12.4f} [{qa['q1']:9.4f},{qa['q3']:9.4f}] "
                f"{qb['median']:12.4f} [{qb['q1']:9.4f},{qb['q3']:9.4f}] "
                f"{delta:+9.2%} {'exact' if kind == 'sim' else format(bound, '.2f'):>6s} {outcome}"
            )
        if name in old_traced and name in new_traced:
            for metric, unit, _ in layers.PER_LAYER:
                a, b = old_traced[name][metric], new_traced[name][metric]
                delta = f"{(b - a) / abs(a):+9.2%}" if a else f"{b - a:+9.4f}"
                print(f"{name:12s}   {metric:44s} {a:16.6f} {b:16.6f} {delta} {unit}")
    return 1 if worse else 0


# ------------------------------------------------------------------------ CLI
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS), help="measure one workload in this process")
    parser.add_argument("--workloads", help="comma-separated subset for a full set (default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="how long one run measures")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS, help="fresh-process repetitions per workload in a full set")
    parser.add_argument("--scale", choices=list(workloads.SCALES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics (a separate, traced run)")
    parser.add_argument("--output", help="append the full set to this JSON file (and a line to results/history.jsonl)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    return run_set(args)


if __name__ == "__main__":
    sys.exit(main())
