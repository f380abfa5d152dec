"""Benchmark of the safe-region monitor: three workloads, two passes each.

Run from the repository root.  One workload::

    python3 perfbench/run.py --workload closed_loop --seed 7 --seconds 10 --trace 0

prints the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``), each by name with its unit, and as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Without
``--workload`` it runs every workload, untraced and traced, each in its
own process, and prints all of it.

``attempted`` counts the (checkpoint, query) pairs checked against
brute force and ``failed`` the pairs whose server result differed;
``correct`` is false when an invariant check failed (``validate()``,
report bookkeeping, or a traced pass whose counts differ from the
untraced pass of the same seed).  See ``config.json`` for the seeds,
the reference calibration slice, the known defects the accuracy
figures expose, and which layer figure should move which end-to-end
figure.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((HERE / "config.json").read_text())
#: Seconds of the fixed calibration slice on the reference host.
REFERENCE = CONFIG["reference_slice_seconds"]
OUT_DIR = HERE / "out"
#: Share of the run length each pass of a traced run takes.
TRACE_FRACTION = 0.5

WORKLOADS = ("tick_replay", "closed_loop", "sharded_closed_loop")

#: Tail percentiles tried from the highest down; the first with at
#: least ten samples beyond it is reported (the last one regardless).
TAIL_PERCENTILES = (99.0, 90.0, 50.0)

END_TO_END_UNITS = {
    "updates_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "msgs_per_client_per_t": "msg/client/t",
    "accuracy": "fraction",
    "peak_rss_mb": "MB",
}

REEVALUATION_CASES = (
    "range_enter", "range_leave", "range_noop", "knn_noop", "knn_leaves",
    "knn_enters", "knn_moves_within", "knn_unordered", "sr_relief",
)

#: Phase-table labels reported one by one; the rest sum into ``other``.
PHASES = (
    "orchestration", "ingest", "ingest;reevaluate", "report.scatter",
    "report.scatter;safe_region", "plan.gather", "plan.gather;kernel.dispatch",
    "plan.gather;report.scatter", "index.maintenance",
)

PER_LAYER_UNITS = {
    "server.self_share": "fraction",
    "server.certified_share": "fraction",
    "server.reevaluations_per_report": "1/report",
    "server.probes_per_report": "1/report",
    "evaluation.calls": "count",
    "evaluation.self_share": "fraction",
    "evaluation.setup_share": "fraction",
    "reevaluation.calls": "count",
    "reevaluation.self_share": "fraction",
    **{f"reevaluation.case.{case}": "count" for case in REEVALUATION_CASES},
    "safe_region.calls": "count",
    "safe_region.self_share": "fraction",
    "safe_region.mean_perimeter": "space",
    "irlp.self_share": "fraction",
    "grid.self_share": "fraction",
    "rstar.calls": "count",
    "rstar.self_share": "fraction",
    "kernels.rows_per_report": "rows/report",
    "kernels.self_share": "fraction",
    "planner.plans": "count",
    "planner.self_share": "fraction",
    "coordinator.route_share": "fraction",
    "coordinator.merge_share": "fraction",
    "coordinator.busy_max_share": "fraction",
    "coordinator.migrations_per_report": "1/report",
    "coordinator.refresh_probes": "count",
    "generator.share": "fraction",
    "truth.self_share": "fraction",
    "host.calibration_factor": "ratio",
    "host.calibration_spread": "fraction",
    "raw.updates_per_s": "1/s",
    "trace.overhead": "fraction",
    **{
        f"phase.{label.replace(';', '.')}.share": "fraction"
        for label in PHASES + ("other",)
    },
}


def tail(samples: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with ≥ 10 beyond it."""
    import numpy as np

    for pct in TAIL_PERCENTILES:
        if len(samples) * (100.0 - pct) / 100.0 >= 10:
            break
    return pct, float(np.percentile(samples, pct))


def end_to_end(run) -> tuple[dict, dict]:
    """Normalised end-to-end metrics and the raw figures beside them."""
    clock = run.updates
    metrics, raw = {}, {}
    for out, times, setups in (
        (metrics, clock.normalised, run.setup_normalised),
        (raw, clock.raw, run.setup_raw),
    ):
        pct, value = tail(times)
        out["updates_per_s"] = run.reports / sum(times)
        out["op_p50_ms"] = statistics.median(times) * 1e3
        out["op_tail_ms"] = value * 1e3
        out["setup_s"] = statistics.median(setups)
    metrics["msgs_per_client_per_t"] = run.msgs_per_client_per_t
    metrics["accuracy"] = run.accuracy
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    raw["tail_percentile"] = pct
    raw["samples"] = len(clock.normalised)
    return metrics, raw


def per_layer(traced, untraced, recorder) -> dict:
    """Per-layer metrics of a traced pass (shares of update-call time)."""
    from repro.obs import phase_budget

    reports = traced.reports
    counters = traced.counters
    m = {
        "server.self_share": recorder.share("server"),
        "server.certified_share":
            counters.get("server.update.certified", 0) / reports,
        "server.reevaluations_per_report": traced.reevaluations / reports,
        "server.probes_per_report": traced.update_probes / reports,
        "evaluation.calls": recorder.count("evaluation"),
        "evaluation.self_share": recorder.share("evaluation"),
        "evaluation.setup_share": recorder.share("evaluation", "setup"),
        "reevaluation.calls": recorder.count("reevaluation"),
        "reevaluation.self_share": recorder.share("reevaluation"),
    }
    for case in REEVALUATION_CASES:
        m[f"reevaluation.case.{case}"] = recorder.cases.get(case, 0)
    m.update({
        "safe_region.calls": recorder.count("safe_region"),
        "safe_region.self_share": recorder.share("safe_region"),
        "safe_region.mean_perimeter": (
            recorder.perimeter_sum / recorder.perimeter_count
            if recorder.perimeter_count else 0.0
        ),
        "irlp.self_share": recorder.share("irlp"),
        "grid.self_share": recorder.share("grid"),
        "rstar.calls": recorder.count("rstar"),
        "rstar.self_share": recorder.share("rstar"),
        "kernels.rows_per_report":
            counters.get("kernels.rows_scanned", 0) / reports,
        "kernels.self_share": recorder.share("kernels"),
        "planner.plans": counters.get("kernels.planner.plans", 0),
        "planner.self_share": recorder.share("planner"),
    })
    # Coordinator figures come from its own process-time counters in
    # the untraced pass: wrapping its router would inflate them.
    coordinator = untraced.coordinator
    if coordinator is not None:
        update_seconds = sum(untraced.updates.raw)
        m["coordinator.route_share"] = (
            coordinator["route_seconds"] / update_seconds
        )
        m["coordinator.merge_share"] = (
            coordinator["merge_seconds"] / update_seconds
        )
        m["coordinator.busy_max_share"] = (
            max(coordinator["busy_seconds"]) / update_seconds
        )
        m["coordinator.refresh_probes"] = coordinator["refresh_probes"]
    else:
        for name in ("route_share", "merge_share", "busy_max_share",
                     "refresh_probes"):
            m[f"coordinator.{name}"] = 0.0
    m["coordinator.migrations_per_report"] = (
        counters.get("shard.migrations", 0) / reports
    )
    update_seconds = recorder.root_seconds.get("server", 0.0)
    generator = (
        traced.phase_seconds - sum(traced.updates.raw)
        - sum(traced.setup_raw) - recorder.root_seconds.get("truth", 0.0)
        - traced.updates.overhead - traced.setup_overhead
    )
    m["generator.share"] = generator / update_seconds
    m["truth.self_share"] = (
        recorder.self_seconds.get(("truth", "truth"), 0.0) / update_seconds
    )
    untraced_e2e, untraced_raw = end_to_end(untraced)
    traced_e2e, _ = end_to_end(traced)
    m["host.calibration_factor"] = untraced.updates.effective_factor()
    m["host.calibration_spread"] = untraced.updates.factor_spread()
    m["raw.updates_per_s"] = untraced_raw["updates_per_s"]
    m["trace.overhead"] = (
        untraced_e2e["updates_per_s"] / traced_e2e["updates_per_s"] - 1.0
    )
    shares = {label: 0.0 for label in PHASES + ("other",)}
    for label, _, share in phase_budget(traced.profile or {}):
        key = label if label in shares else "other"
        shares[key] += share
    for label, share in shares.items():
        m[f"phase.{label.replace(';', '.')}.share"] = share
    return m


def measure_end_to_end(workload: str, seed: int, seconds: float):
    """The untraced run: ``(metrics, raw figures, measurement)``."""
    from workloads import run_workload

    run = run_workload(workload, seed, seconds, REFERENCE)
    metrics, raw = end_to_end(run)
    return metrics, raw, run


def measure_layers(workload: str, seed: int, seconds: float):
    """Untraced then traced pass of the same inputs.

    Returns ``(metrics, untraced, traced, recorder)``.  Both passes are
    ``TRACE_FRACTION`` of the run length, so a traced run costs about
    what an untraced one does.
    """
    from tracing import SpanRecorder, traced_layers
    from workloads import run_workload

    seconds *= TRACE_FRACTION
    untraced = run_workload(workload, seed, seconds, REFERENCE, setups=1)
    recorder = SpanRecorder()
    with traced_layers(recorder):
        traced = run_workload(
            workload, seed, seconds, REFERENCE, recorder=recorder, setups=1
        )
    if traced.counts() != untraced.counts():
        traced.problems.append(
            f"traced counts {traced.counts()} differ from "
            f"untraced {untraced.counts()}"
        )
    return per_layer(traced, untraced, recorder), untraced, traced, recorder


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process; print its table and result."""
    started = perf_counter()
    if not trace:
        metrics, raw, run = measure_end_to_end(workload, seed, seconds)
        runs = [run]
        kinds = ", ".join(
            f"{kind} {count}" for kind, count in sorted(run.mismatch_kinds.items())
        )
        notes = {
            "op_tail_ms": f"p{raw['tail_percentile']:g} of {raw['samples']}",
            "setup_s": f"median of {len(run.setup_normalised)}",
            "accuracy": f"{run.mismatches} of {run.checks} checks wrong"
            + (f" ({kinds})" if kinds else ""),
        }
        clock = run.updates
        title = (
            f"{workload} seed={seed} seconds={seconds:g}: {run.reports} "
            f"reports, {run.probes} probes, host calibration factor "
            f"{clock.effective_factor():.4f} (spread "
            f"{clock.factor_spread():.4f} over {len(clock.factors)} windows)"
        )
        units = END_TO_END_UNITS
        rows = [
            (name, value, units[name],
             (f"raw {raw[name]:.6g}  " if name in raw else "")
             + notes.get(name, ""))
            for name, value in metrics.items()
        ]
    else:
        metrics, untraced, traced, recorder = measure_layers(
            workload, seed, seconds
        )
        runs = [untraced, traced]
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload}-{seed}.tsv"
        recorder.write(spans_path)
        title = (
            f"{workload} seed={seed} seconds={seconds:g} traced: "
            f"{len(recorder.spans)} spans kept ({recorder.dropped} past "
            f"the cap) in {spans_path.relative_to(ROOT)}"
        )
        units = PER_LAYER_UNITS
        rows = [(name, value, units[name], "") for name, value in metrics.items()]
    print(title)
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<36} {shown:>14} {unit:<13} {note}")
    problems = [problem for run in runs for problem in run.problems]
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  wall {perf_counter() - started:.1f}s")
    return {
        "correct": not problems,
        "attempted": sum(run.checks for run in runs),
        "failed": sum(run.mismatches for run in runs),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            results[f"{workload}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", choices=WORKLOADS, help="one workload; omit for all"
    )
    parser.add_argument("--seed", type=int, default=CONFIG["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    source = ROOT / "src" / "repro"
    if not source.is_dir():
        # Measure the checkout's own program, never an installed copy.
        parser.error(f"no program source at {source}")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
