"""Pins on the benchmark itself: each workload still exercises the layer
it was chosen for, and the counts of one seed repeat exactly.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import run

SEED = 5
#: Run lengths short enough for a test; a traced run halves them
#: (tick_replay: 2 ticks; closed loops: one scenario each).
SHORT = {"tick_replay": 0.4, "closed_loop": 2.0, "sharded_closed_loop": 2.0}


@pytest.fixture(scope="module")
def layers():
    return {
        workload: run.measure_layers(workload, SEED, seconds)
        for workload, seconds in SHORT.items()
    }


def test_tick_replay_runs_the_planner_and_the_kernels(layers):
    metrics = layers["tick_replay"][0]
    assert metrics["planner.plans"] > 0
    assert metrics["kernels.rows_per_report"] >= 1


def test_closed_loop_bypasses_the_planner(layers):
    assert layers["closed_loop"][0]["planner.plans"] == 0


@pytest.mark.parametrize("workload", sorted(SHORT))
def test_coordinator_time_only_on_the_sharded_loop(layers, workload):
    metrics = layers[workload][0]
    sharded = workload == "sharded_closed_loop"
    assert (metrics["coordinator.route_share"] > 0) == sharded
    assert (metrics["coordinator.merge_share"] > 0) == sharded


@pytest.mark.parametrize("workload", ["closed_loop", "sharded_closed_loop"])
def test_closed_loops_probe(layers, workload):
    assert layers[workload][0]["server.probes_per_report"] > 0


@pytest.mark.parametrize("workload", sorted(SHORT))
def test_passes_agree_and_check_clean(layers, workload):
    _, untraced, traced, _ = layers[workload]
    assert untraced.problems == [] and traced.problems == []
    assert untraced.counts() == traced.counts()


def _counts(workload: str, hash_seed: str) -> str:
    code = (
        "import run, sys; from workloads import run_workload; "
        f"r = run_workload({workload!r}, {SEED}, {SHORT[workload]}, "
        "run.REFERENCE, setups=1); "
        "print(repr((r.reports, r.probes, r.msgs_per_client_per_t, "
        "r.checks, r.mismatches, r.accuracy)))"
    )
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [here, os.path.join(os.path.dirname(here), "src")]
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=300,
    )
    return done.stdout.strip()


@pytest.mark.parametrize("workload", sorted(SHORT))
def test_counts_repeat_bit_for_bit(workload):
    """Reports, probes, message cost and accuracy of one seed, in two
    processes with different string-hash seeds."""
    assert _counts(workload, "1") == _counts(workload, "2")
