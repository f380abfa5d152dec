"""The benchmark's three workloads, their inputs, timings and checks.

Every timing is ``time.process_time`` around one call into the
server's public API and nothing else: set-up is ``load_objects`` plus
the ``register_query`` calls, an update is one
``handle_location_updates`` (tick replay) or ``handle_location_update``
(closed loops) call.  Each timed call is host-normalised by the
calibration window it falls in (``hostcal``).

The amount of work is fixed by the seed and the run length alone --
``seconds`` sets the number of ticks or of closed-loop scenarios
through the constants below -- so the counts of one seed (reports,
probes, message cost, accuracy) repeat exactly on any host.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass, field
from time import process_time

import numpy as np

from hostcal import HostClock, time_slice

from repro.core.queries import KNNQuery, RangeQuery
from repro.core.server import DatabaseServer, ServerConfig
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs import MetricsRegistry
from repro.simulation.engine import SRBSimulation
from repro.simulation.metrics import CommunicationCosts
from repro.simulation.scenario import Scenario

# tick_replay: the BENCH_kernels scenario widened from 3k to 20k objects.
TICK_OBJECTS = 20_000
TICK_QUERIES = 120
TICK_MOVERS = 4_000
TICK_GRID_M = 20
TICK_SIGMA = 0.004
TICK_DISTRICT = 0.25
TICK_RANGE_SIDE = 0.03
TICK_K = 3
#: Ticks replayed per second of run length.
TICKS_PER_SECOND = 12
TICK_SETUPS = 3

# closed loops: the paper's §7.1 simulation, Scenario defaults otherwise.
LOOP_OBJECTS = 1_000
LOOP_QUERIES = 50
LOOP_SHARDS = 4
#: Simulated time units of each scenario.
LOOP_DURATION = 0.25
#: Scenarios (populations of their own sub-seed) per second of run
#: length: message cost, accuracy and the latency tail vary far more
#: between query placements than within one, so a run pools several.
#: The sharded loop runs the first half of the single server's
#: populations -- its reports cost four times as much.
LOOP_SCENARIOS_PER_SECOND = {"closed_loop": 2, "sharded_closed_loop": 1}
#: Reports per calibration window on the closed loops.
LOOP_WINDOW = 128
#: Set-up calls (load_objects, register_query) per calibration window.
SETUP_WINDOW = 8


@dataclass
class Measurement:
    """Everything one run of one workload measured and checked."""

    workload: str
    seed: int
    updates: HostClock
    setup_raw: list = field(default_factory=list)
    setup_normalised: list = field(default_factory=list)
    #: CPU seconds the set-up calibration slices took.
    setup_overhead: float = 0.0
    reports: int = 0
    probes: int = 0
    msgs_per_client_per_t: float = 0.0
    checks: int = 0
    mismatches: int = 0
    #: Mismatches by query kind (``range`` / ``knn``).
    mismatch_kinds: dict = field(default_factory=dict)
    #: Correctness failures other than result mismatches.
    problems: list = field(default_factory=list)
    #: ``ServerStats`` and, traced, ``MetricsRegistry`` counter deltas
    #: over the update calls.
    reevaluations: int = 0
    update_probes: int = 0
    #: Process time of the whole run: set-up and update calls,
    #: brute-force checks, calibration and load generation.
    phase_seconds: float = 0.0
    counters: dict = field(default_factory=dict)
    profile: dict | None = None
    coordinator: dict | None = None

    @property
    def accuracy(self) -> float:
        return (self.checks - self.mismatches) / self.checks

    def counts(self) -> tuple:
        """The figures that must repeat exactly for a fixed seed."""
        return (
            self.reports, self.probes, self.msgs_per_client_per_t,
            self.checks, self.mismatches,
        )


class Meter:
    """Times the server's public API calls in calibration windows."""

    def __init__(self, reference: float, window: int, recorder=None) -> None:
        self.recorder = recorder
        self.updates = HostClock(reference, window)
        self.setup = HostClock(reference, SETUP_WINDOW)
        #: Raw and normalised seconds of each completed set-up.
        self.setup_raw: list[float] = []
        self.setup_normalised: list[float] = []
        self.reports = 0
        self._setup_start: int | None = None
        #: Timed calls open: the server calls its own public methods
        #: (a batch falls back to single reports), and only the
        #: outermost call is timed.
        self._depth = 0
        #: Called once, just before the first timed update.
        self.on_first_update = None

    def _call(self, clock: HostClock, fn, *args, **kwargs):
        clock.open()
        self._depth += 1
        start = process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            clock.add(process_time() - start)
            self._depth -= 1

    def setup_call(self, fn, *args, **kwargs):
        if self._setup_start is None:
            self._setup_start = len(self.setup.raw)
        return self._call(self.setup, fn, *args, **kwargs)

    def end_setup(self) -> None:
        """Close one set-up and record its raw and normalised time."""
        self.setup.close()
        start, self._setup_start = self._setup_start, None
        self.setup_raw.append(sum(self.setup.raw[start:]))
        self.setup_normalised.append(sum(self.setup.normalised[start:]))

    def update_call(self, fn, reports: int, *args, **kwargs):
        if self._setup_start is not None:
            self.end_setup()
            if self.on_first_update is not None:
                self.on_first_update()
        self.reports += reports
        return self._call(self.updates, fn, *args, **kwargs)

    def finish(self) -> None:
        if self._setup_start is not None:
            self.end_setup()
        self.updates.close()

    def instrument(self, server) -> None:
        """Route ``server``'s public API through the meter (and tracer)."""
        for name in ("load_objects", "register_query"):
            setattr(server, name, self._timed(
                self.setup_call, getattr(server, name), "setup", None,
            ))
        server.handle_location_update = self._timed(
            self.update_call, server.handle_location_update, "server",
            lambda oid, position, time=0.0: 1,
        )
        server.handle_location_updates = self._timed(
            self.update_call, server.handle_location_updates, "server",
            lambda reports, time=0.0: len(reports),
        )

    def _timed(self, call, method, root, count):
        """``method`` timed (and traced as a ``root`` span) when outermost."""
        name = f"server.{method.__name__}"
        traced = method
        if self.recorder is not None:
            traced = self.recorder.wrap(method, name, root)

        def entry(*args, **kwargs):
            if self._depth:
                return method(*args, **kwargs)
            if count is None:
                return call(traced, *args, **kwargs)
            return call(traced, count(*args, **kwargs), *args, **kwargs)

        return entry


# ----------------------------------------------------------------------
# tick_replay
# ----------------------------------------------------------------------
def tick_inputs(seed: int):
    """Initial positions, query specs and the tick generator's rng."""
    rng = random.Random(seed)
    positions = {}
    for n in range(TICK_OBJECTS):
        if n % 50 < 47:  # city-wide traffic
            positions[n] = Point(rng.random(), rng.random())
        else:  # residents of the monitored district
            positions[n] = Point(
                rng.random() * TICK_DISTRICT, rng.random() * TICK_DISTRICT
            )
    specs = []
    for i in range(TICK_QUERIES):
        if i % 2:
            x = rng.random() * (TICK_DISTRICT - 0.04)
            y = rng.random() * (TICK_DISTRICT - 0.04)
            specs.append(("range", f"r{i:03d}", x, y))
        else:
            specs.append((
                "knn", f"k{i:03d}",
                rng.random() * TICK_DISTRICT, rng.random() * TICK_DISTRICT,
            ))
    return positions, specs, rng


def make_queries(specs):
    queries = []
    for kind, qid, x, y in specs:
        if kind == "range":
            rect = Rect(x, y, x + TICK_RANGE_SIDE, y + TICK_RANGE_SIDE)
            queries.append(RangeQuery(rect, query_id=qid))
        else:
            queries.append(KNNQuery(Point(x, y), TICK_K, query_id=qid))
    return queries


def next_batch(rng: random.Random, live: dict, ids: list) -> list:
    """One tick: ``TICK_MOVERS`` objects take a Gaussian step."""
    batch = []
    for oid in rng.sample(ids, TICK_MOVERS):
        p = live[oid]
        q = Point(
            min(max(p.x + rng.gauss(0.0, TICK_SIGMA), 0.0), 1.0),
            min(max(p.y + rng.gauss(0.0, TICK_SIGMA), 0.0), 1.0),
        )
        batch.append((oid, q))
    return batch


def brute_force(xs: np.ndarray, ys: np.ndarray, queries) -> dict:
    """True result of every query over the true positions (ids = rows)."""
    truth = {}
    for query in queries:
        if isinstance(query, RangeQuery):
            r = query.rect
            mask = (xs >= r.min_x) & (xs <= r.max_x)
            mask &= (ys >= r.min_y) & (ys <= r.max_y)
            truth[query.query_id] = frozenset(np.flatnonzero(mask).tolist())
        else:
            d2 = (xs - query.center.x) ** 2 + (ys - query.center.y) ** 2
            nearest = np.argpartition(d2, query.k)[: query.k]
            ranked = sorted(nearest.tolist(), key=lambda row: (d2[row], row))
            truth[query.query_id] = tuple(ranked)
    return truth


def run_tick_replay(seed, seconds, reference, recorder=None,
                    setups=TICK_SETUPS) -> Measurement:
    """Time ``setups`` set-ups, then replay the ticks on the last server."""
    positions, specs, rng = tick_inputs(seed)
    meter = Meter(reference, window=1, recorder=recorder)
    check = brute_force if recorder is None else recorder.wrap(
        brute_force, "truth.brute_force", "truth"
    )
    phase_start = process_time()
    for attempt in range(setups):
        server = live = queries = None
        gc.collect()
        live = dict(positions)
        queries = make_queries(specs)
        last = attempt == setups - 1
        metrics = MetricsRegistry() if recorder is not None and last else None
        server = DatabaseServer(
            live.__getitem__, ServerConfig(grid_m=TICK_GRID_M),
            metrics=metrics,
        )
        meter.instrument(server)
        server.load_objects(live.items())
        for query in queries:
            server.register_query(query, time=0.0)
        meter.end_setup()
    if recorder is not None:
        server.profile_start()
        counters0 = metrics.to_dict()["counters"]
    before = server.stats
    probes0, reev0 = before.probes, before.queries_reevaluated
    ids = sorted(live)
    ticks = max(1, round(TICKS_PER_SECOND * seconds))
    run = Measurement("tick_replay", seed, meter.updates)
    kinds = {"range": 0, "knn": 0}
    xs = np.array([live[oid].x for oid in ids])
    ys = np.array([live[oid].y for oid in ids])
    gc.collect()
    for tick in range(1, ticks + 1):
        batch = next_batch(rng, live, ids)
        # The probe oracle answers true same-tick positions: the whole
        # batch has moved before the server sees its first report.
        live.update(batch)
        for oid, p in batch:
            xs[oid] = p.x
            ys[oid] = p.y
        server.handle_location_updates(batch, time=float(tick))
        truth = check(xs, ys, queries)
        for query in queries:
            if query.result_snapshot() != truth[query.query_id]:
                kind = "range" if isinstance(query, RangeQuery) else "knn"
                kinds[kind] += 1
    run.phase_seconds = process_time() - phase_start
    meter.finish()
    stats = server.stats
    run.setup_raw = meter.setup_raw
    run.setup_normalised = meter.setup_normalised
    run.setup_overhead = meter.setup.overhead
    run.reports = meter.reports
    run.probes = stats.probes
    run.update_probes = stats.probes - probes0
    run.reevaluations = stats.queries_reevaluated - reev0
    run.msgs_per_client_per_t = CommunicationCosts(
        updates=meter.reports, probes=stats.probes,
        pushes=stats.safe_region_pushes,
    ).per_client_per_time(TICK_OBJECTS, ticks)
    run.checks = ticks * len(queries)
    run.mismatches = sum(kinds.values())
    run.mismatch_kinds = kinds
    _validate(server, run)
    if recorder is not None:
        _add_counters(run.counters, metrics.to_dict(), counters0)
        run.profile = server.profile_snapshot()
        server.profile_stop()
    return run


# ----------------------------------------------------------------------
# closed_loop / sharded_closed_loop
# ----------------------------------------------------------------------
def loop_scenarios(workload: str, seed: int, seconds: float) -> list:
    """The run's scenarios: one population per sub-seed of ``seed``."""
    count = max(1, round(LOOP_SCENARIOS_PER_SECOND[workload] * seconds))
    return [
        Scenario(
            num_objects=LOOP_OBJECTS,
            num_queries=LOOP_QUERIES,
            delay=0.0,
            duration=LOOP_DURATION,
            seed=seed * 64 + i,
            shards=LOOP_SHARDS if workload == "sharded_closed_loop" else 0,
        )
        for i in range(count)
    ]


def run_closed_loop(workload, seed, seconds, reference,
                    recorder=None) -> Measurement:
    """Simulate the run's scenarios one after another, pooling figures."""
    meter = Meter(reference, window=LOOP_WINDOW, recorder=recorder)
    run = Measurement(workload, seed, meter.updates)
    costs = CommunicationCosts()
    simulated = 0.0
    phases: dict[str, float] = {}
    for scenario in loop_scenarios(workload, seed, seconds):
        gc.collect()
        _loop_scenario(scenario, meter, run, costs, phases, recorder)
        simulated += scenario.duration
    meter.finish()
    run.setup_raw = meter.setup_raw
    run.setup_normalised = meter.setup_normalised
    run.setup_overhead = meter.setup.overhead
    run.reports = meter.reports
    run.probes = costs.probes
    run.msgs_per_client_per_t = costs.per_client_per_time(
        LOOP_OBJECTS, simulated
    )
    if costs.updates != meter.reports:
        run.problems.append(
            f"clients sent {costs.updates} reports, "
            f"the server saw {meter.reports}"
        )
    if recorder is not None:
        run.profile = {"phases": phases}
    return run


def _loop_scenario(scenario, meter, run, costs, phases, recorder):
    """Simulate one scenario, folding its figures into ``run``."""
    traced = recorder is not None
    sim = SRBSimulation(
        scenario, metrics=MetricsRegistry() if traced else None,
        profile=traced,
    )
    server = sim.server
    meter.instrument(server)
    baseline = {}

    def at_first_update():
        stats = server.stats
        baseline["probes"] = stats.probes
        baseline["reevaluations"] = stats.queries_reevaluated
        if traced:
            snapshot = server.metrics.to_dict()
            if scenario.shards:
                snapshot["shards"] = server.shard_metrics_snapshots()
            baseline["counters"] = _sum_counters(snapshot)

    meter.on_first_update = at_first_update
    if scenario.shards:
        # The engine closes the coordinator at the end of ``run``;
        # check it and read its own timers just before.
        close = server.close

        def checked_close():
            _validate(server, run)
            coordinator = run.coordinator or {
                "route_seconds": 0.0, "merge_seconds": 0.0,
                "busy_seconds": [0.0] * server.n_shards,
                "refresh_probes": 0,
            }
            coordinator["route_seconds"] += server.route_seconds
            coordinator["merge_seconds"] += server.merge_seconds
            coordinator["busy_seconds"] = [
                total + busy for total, busy in zip(
                    coordinator["busy_seconds"], server.shard_busy_seconds()
                )
            ]
            coordinator["refresh_probes"] += server.refresh_probe_count
            run.coordinator = coordinator
            close()

        server.close = checked_close
    phase_start = process_time()
    report = sim.run()
    run.phase_seconds += process_time() - phase_start
    if not scenario.shards:
        _validate(server, run)
    stats = server.stats
    run.update_probes += stats.probes - baseline.get("probes", 0)
    run.reevaluations += (
        stats.queries_reevaluated - baseline.get("reevaluations", 0)
    )
    costs.updates += report.costs.updates
    costs.probes += report.costs.probes
    costs.pushes += report.costs.pushes
    run.checks += sim.accuracy.comparisons
    run.mismatches += sim.accuracy.comparisons - sim.accuracy.matches
    if traced:
        _add_counters(run.counters, report.metrics, baseline["counters"])
        for path, seconds in report.extras["profile"]["phases"].items():
            phases[path] = phases.get(path, 0.0) + seconds


def _sum_counters(snapshot: dict) -> dict:
    """Counters of a metrics snapshot plus those of its shard sections."""
    sections = [snapshot, *snapshot.get("shards", {}).values()]
    total: dict = {}
    for section in sections:
        for name, value in section.get("counters", {}).items():
            total[name] = total.get(name, 0) + value
    return total


def _add_counters(into: dict, snapshot: dict, baseline: dict) -> None:
    """Add the counters' growth since ``baseline`` to ``into``."""
    for name, value in _sum_counters(snapshot).items():
        into[name] = into.get(name, 0) + value - baseline.get(name, 0)


def _validate(server, run: Measurement) -> None:
    try:
        server.validate()
    except AssertionError as exc:
        run.problems.append(f"validate(): {exc}")


def run_workload(workload, seed, seconds, reference, recorder=None,
                 setups=TICK_SETUPS) -> Measurement:
    """One run of ``workload`` (a name in ``run.WORKLOADS``).

    A ``recorder`` makes it the traced run: spans go to the recorder,
    and a ``MetricsRegistry`` and the tick-phase profiler ride along.
    ``setups`` is how often tick_replay times its set-up; each closed
    loop scenario sets up once.
    """
    if workload == "tick_replay":
        return run_tick_replay(seed, seconds, reference, recorder, setups)
    return run_closed_loop(workload, seed, seconds, reference, recorder)
