"""Sanity checks for the GitHub Actions workflow (.github/workflows/ci.yml).

CI cannot test itself before it is merged, so these run under tier-1: the
workflow must stay parseable, keep the documented job set, and — most
importantly — run the tier-1 command *exactly* as ROADMAP.md records it,
so local verification and CI can never drift apart.
"""

import pathlib
import re

import pytest

yaml = pytest.importorskip("yaml")
jsonschema = pytest.importorskip("jsonschema")

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: Light structural schema for the subset of the Actions grammar we use.
WORKFLOW_SCHEMA = {
    "type": "object",
    "required": ["name", "jobs"],
    "properties": {
        "name": {"type": "string"},
        "jobs": {
            "type": "object",
            "minProperties": 1,
            "additionalProperties": {
                "type": "object",
                "required": ["runs-on", "steps"],
                "properties": {
                    "runs-on": {"type": "string"},
                    "steps": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "object",
                            "anyOf": [
                                {"required": ["uses"]},
                                {"required": ["run"]},
                            ],
                        },
                    },
                },
            },
        },
    },
}


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load(WORKFLOW.read_text())


def test_workflow_parses_and_validates(workflow):
    jsonschema.validate(workflow, WORKFLOW_SCHEMA)
    # YAML 1.1 parses the `on:` trigger key as boolean True.
    triggers = workflow.get("on", workflow.get(True))
    assert triggers is not None
    assert "pull_request" in triggers and "push" in triggers


def test_expected_jobs_present(workflow):
    assert set(workflow["jobs"]) == {
        "lint", "test", "bench-smoke", "bench-hotpath", "bench-kernels",
        "bench-shards", "fault-matrix", "profile-smoke", "perfbench-pins",
    }


def test_perfbench_pins_job_runs_the_pins(workflow):
    runs = _runs(workflow["jobs"]["perfbench-pins"])
    assert "python3 -m pytest perfbench -q" in runs


def test_concurrency_cancels_superseded_pr_runs(workflow):
    """Follow-up pushes to a PR cancel the superseded run; main never
    cancels, so every merge keeps its full CI record."""
    concurrency = workflow["concurrency"]
    assert "github.ref" in concurrency["group"]
    cancel = str(concurrency["cancel-in-progress"])
    assert "refs/heads/main" in cancel and "!=" in cancel


def test_every_job_caches_pip(workflow):
    """All jobs install from pip, so all jobs must restore the pip cache
    keyed on pyproject.toml."""
    for name, job in workflow["jobs"].items():
        setups = [
            step for step in job["steps"]
            if "setup-python" in step.get("uses", "")
        ]
        assert setups, name
        for step in setups:
            assert step["with"].get("cache") == "pip", name
            assert step["with"].get("cache-dependency-path") == (
                "pyproject.toml"
            ), name


def _runs(job):
    return [step["run"] for step in job["steps"] if "run" in step]


def _uploads(job):
    return [
        step for step in job["steps"]
        if "upload-artifact" in step.get("uses", "")
    ]


def _primary_uploads(job):
    """Unconditional artifact uploads (no ``if:`` guard)."""
    return [step for step in _uploads(job) if "if" not in step]


def test_tier1_command_matches_roadmap(workflow):
    roadmap = (ROOT / "ROADMAP.md").read_text()
    match = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap)
    assert match, "ROADMAP.md lost its tier-1 verify line"
    tier1 = match.group(1)
    assert tier1 in _runs(workflow["jobs"]["test"])


def test_test_job_covers_both_python_versions(workflow):
    matrix = workflow["jobs"]["test"]["strategy"]["matrix"]
    assert matrix["python-version"] == ["3.11", "3.12"]


def test_lint_job_runs_ruff(workflow):
    runs = _runs(workflow["jobs"]["lint"])
    assert any("ruff check" in run for run in runs)


def test_bench_smoke_uploads_metrics_artifact(workflow):
    job = workflow["jobs"]["bench-smoke"]
    runs = _runs(job)
    assert any("benchmarks/test_scale_smoke.py" in run for run in runs)
    uploads = _primary_uploads(job)
    assert len(uploads) == 1
    # The metrics land in the gitignored scratch dir — bench runs never
    # churn the tracked results/ tree with regenerated side artifacts.
    assert uploads[0]["with"]["path"] == (
        "benchmarks/results/scratch/bench_metrics.json"
    )
    assert uploads[0]["with"]["if-no-files-found"] == "error"


def test_bench_hotpath_runs_smoke_and_uploads_baseline(workflow):
    job = workflow["jobs"]["bench-hotpath"]
    runs = _runs(job)
    assert any(
        "HOTPATH_SMOKE=1" in run
        and "benchmarks/test_hotpath_bench.py" in run
        for run in runs
    )
    uploads = _primary_uploads(job)
    assert len(uploads) == 1
    assert uploads[0]["with"]["path"] == (
        "benchmarks/results/BENCH_hotpath.json"
    )
    assert uploads[0]["with"]["if-no-files-found"] == "error"


def test_bench_kernels_runs_both_backends_and_gates_on_equivalence(workflow):
    job = workflow["jobs"]["bench-kernels"]
    runs = _runs(job)
    assert any(
        "KERNELS_SMOKE=1" in run
        and "benchmarks/test_kernels_bench.py" in run
        for run in runs
    )
    # A dedicated step re-reads the emitted JSON and exits non-zero when
    # the backend A/B diverged — the job cannot go green on a mismatch.
    assert any("d['equivalent']" in run for run in runs)
    # The committed baseline itself is integrity-checked: a full-run
    # artifact with equivalent backends and a scalar-fallback row share
    # under the documented 10% cap.
    assert any(
        "BENCH_kernels_baseline.json" in run
        and "fallback_rows" in run
        and "ratio < 0.10" in run
        for run in runs
    )
    uploads = _primary_uploads(job)
    assert len(uploads) == 1
    assert uploads[0]["with"]["path"] == (
        "benchmarks/results/BENCH_kernels.json"
    )
    assert uploads[0]["with"]["if-no-files-found"] == "error"


def test_bench_shards_pins_equivalence_and_uploads_baseline(workflow):
    job = workflow["jobs"]["bench-shards"]
    runs = _runs(job)
    assert any(
        "SHARDS_SMOKE=1" in run
        and "benchmarks/test_shards_bench.py" in run
        for run in runs
    )
    # A dedicated step re-reads the emitted JSON and exits non-zero when
    # the in-process sharded replay diverged from the single server.
    assert any("d['equivalent']" in run for run in runs)
    uploads = _primary_uploads(job)
    assert len(uploads) == 1
    assert uploads[0]["with"]["path"] == (
        "benchmarks/results/BENCH_shards.json"
    )
    assert uploads[0]["with"]["if-no-files-found"] == "error"


def test_bench_jobs_upload_flight_recorder_on_failure(workflow):
    """Every bench job archives flight-recorder spills when it fails.

    The upload is guarded by ``if: failure()`` (green runs stay light)
    and tolerates absent files — a job can fail before any recorder
    spill exists.
    """
    for name in ("bench-smoke", "bench-hotpath", "bench-kernels",
                 "bench-shards"):
        job = workflow["jobs"][name]
        failure_uploads = [
            step for step in _uploads(job) if step.get("if") == "failure()"
        ]
        assert len(failure_uploads) == 1, name
        upload = failure_uploads[0]["with"]
        assert "flight" in upload["path"], name
        assert upload["if-no-files-found"] == "ignore", name


def test_profile_smoke_covers_both_deployments_and_gates(workflow):
    """The profile-smoke job runs ``repro profile`` single-server *and*
    sharded (exercising cross-process aggregation), verifies both phase
    budgets close via ``benchmarks/profile_gate.py``, gates bit-identity
    plus enabled-mode overhead, and archives the folded-stack artifacts
    unconditionally (docs/OBSERVABILITY.md)."""
    job = workflow["jobs"]["profile-smoke"]
    runs = _runs(job)
    profile_runs = [run for run in runs if "repro profile" in run]
    assert len(profile_runs) == 2
    assert any("--shards 2" in run for run in profile_runs)
    assert all("--folded-out" in run for run in profile_runs)
    assert all("--profile-out" in run for run in profile_runs)
    # Structural verification covers both reports, with the sharded one
    # required to carry a per-shard sub-report for each of the 2 shards.
    verify = [run for run in runs if "profile_gate.py verify" in run]
    assert verify and any("--shards 2" in run for run in verify)
    # The contract gate: bit-identical disabled-mode output and < 5%
    # enabled-mode CPU overhead on the same scenario.
    assert any(
        "profile_gate.py gate" in run and "--threshold 0.05" in run
        for run in runs
    )
    uploads = _primary_uploads(job)
    assert len(uploads) == 1
    assert "folded" in uploads[0]["with"]["path"]
    assert uploads[0]["with"]["if-no-files-found"] == "error"


def test_fault_matrix_runs_canned_profiles_through_diagnose(workflow):
    """The fault-matrix job drives the simulator under the three canned
    fault profiles and replays each recorder through ``repro diagnose``
    (which exits 1 on invariant violations), archiving the recorder when
    the job fails (docs/ROBUSTNESS.md)."""
    job = workflow["jobs"]["fault-matrix"]
    profiles = job["strategy"]["matrix"]["profile"]
    assert {p["name"] for p in profiles} == {
        "lossy", "dup-reorder", "probe-timeout", "shard-kill",
        "elastic-drill",
    }
    specs = {p["name"]: p["spec"] for p in profiles}
    assert "drop=" in specs["lossy"] and "dup=" in specs["lossy"]
    assert "dup=" in specs["dup-reorder"] and "delay=" in specs["dup-reorder"]
    assert "probe_timeout=" in specs["probe-timeout"]
    # The shard-failure drill runs the same faulted replay sharded and
    # hard-kills one shard mid-run; containment is checked by the same
    # diagnose step (degraded flags exempt the frozen members).
    extras = {p["name"]: p.get("extra", "") for p in profiles}
    assert "--shards" in extras["shard-kill"]
    assert "--kill-shard" in extras["shard-kill"]
    # The elasticity drill grows and shrinks the cluster mid-run with
    # refresh probes on; the reshard_consistency check in the same
    # diagnose step fails the job on any split home table.
    assert "--shards" in extras["elastic-drill"]
    assert "--reshard" in extras["elastic-drill"]
    assert "--refresh-probes" in extras["elastic-drill"]
    runs = _runs(job)
    compare = [i for i, run in enumerate(runs)
               if "repro compare" in run and "--faults" in run
               and "--fault-seed" in run and "--flight-recorder" in run
               and "matrix.profile.extra" in run]
    diagnose = [i for i, run in enumerate(runs)
                if "repro diagnose" in run]
    assert compare and diagnose
    assert compare[0] < diagnose[0], "must record before diagnosing"
    failure_uploads = [
        step for step in _uploads(job) if step.get("if") == "failure()"
    ]
    assert len(failure_uploads) == 1
    assert failure_uploads[0]["with"]["if-no-files-found"] == "ignore"


def test_bench_jobs_gate_throughput_against_stashed_baseline(workflow):
    """Baseline-producing bench jobs stash the committed JSON and gate.

    The benchmark overwrites its committed baseline in place, so the
    job must copy it aside *before* the run and hand both files to
    ``benchmarks/check_regression.py`` afterwards.
    """
    for name, artifact in (
        ("bench-hotpath", "BENCH_hotpath.json"),
        ("bench-kernels", "BENCH_kernels.json"),
        ("bench-shards", "BENCH_shards.json"),
    ):
        runs = _runs(workflow["jobs"][name])
        stash = [
            i for i, run in enumerate(runs)
            if f"cp benchmarks/results/{artifact}" in run
        ]
        gate = [
            i for i, run in enumerate(runs)
            if "check_regression.py" in run and artifact in run
        ]
        assert stash and gate, f"{name} missing stash or gate step"
        assert stash[0] < gate[0], f"{name} must stash before gating"
