"""The database server of the monitoring framework (Section 3, Algorithm 1).

The server owns four components (Figure 3.1): the object index over safe
regions (an R*-tree), the in-memory grid index over query quarantine
areas, the query processor (evaluation / incremental reevaluation with
lazy probes), and the location manager (safe-region computation).

Exact object positions are obtained through ``position_oracle`` — the
server-initiated probe channel.  In the simulator this callback charges
the probe communication cost and synchronises the client; in standalone
library use it is any function resolving an object id to its current
position.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Hashable, Iterable

from repro.core.enhancements import ReachabilityModel, weighted_perimeter_objective
from repro.core.evaluation import evaluate_knn, evaluate_range
from repro.core.irlp import interior_margin
from repro.core.queries import KNNQuery, Query, RangeQuery
from repro.core.reevaluation import (
    reevaluate_knn,
    reevaluate_range,
    relieve_tight_safe_region,
)
from repro.core.batch import quadrant_extents
from repro.core.results import BatchOutcome, ResultChange, UpdateOutcome
from repro.core.safe_region import (
    collect_range_obstacles,
    compute_safe_region,
    knn_safe_region,
)
from repro.faults import ProbeTimeout
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.bulk import bulk_load
from repro.index.grid import GridIndex
from repro.index.rstar import RStarTree
from repro.kernels import KERNEL_BACKENDS, Kernels, PositionStore, TickPlanner
from repro.obs import (
    COUNT_BUCKETS,
    NULL_EVENT_LOG,
    NULL_PROFILER,
    NULL_REGISTRY,
    Tracer,
    occupancy_summary,
)

ObjectId = Hashable
PositionOracle = Callable[[ObjectId], Point]

UNIT_SPACE = Rect(0.0, 0.0, 1.0, 1.0)

#: Smallest batch the tick planner plans.  A one-report plan pays a
#: full gather/dispatch/scatter round for one row and saves nothing:
#: the sequential path does the same kernel work inline.
MIN_PLANNED_REPORTS = 2


@dataclass(frozen=True, slots=True)
class ServerConfig:
    """Tunables of the database server.

    * ``grid_m`` — resolution of the M x M query grid index (Section 3.3).
    * ``space`` — the workspace; the paper uses the unit square.
    * ``max_speed`` — enables the reachability-circle enhancement
      (Section 6.1) when set to the objects' maximum speed.
    * ``reachability_pushes`` — when True (default), every safe region
      tightened by the reachability constraint during a *decision* is
      installed and pushed to the client (downlink cost 0.5), keeping the
      quarantine invariants exact.  When False the constraint is used the
      way the paper describes — decide, don't install — which reproduces
      the paper's 20-40% savings but silently allows stale results
      whenever an object outruns a decision made on its constrained
      region (EXPERIMENTS.md quantifies the accuracy cost).
    * ``steadiness`` — the D parameter of the weighted-perimeter
      enhancement (Section 6.2); 0 disables it.
    * ``index_max_entries`` — R*-tree node capacity.
    * ``enable_caches`` — the hot-path acceleration layer
      (docs/PERFORMANCE.md): generation-stamped per-cell candidate caches
      in the grid index and lazy safe-region recomputation keyed on cell
      generations.  On by default; disabling it restores the seed's
      recompute-everything behaviour (``repro compare --no-caches``) so
      perf regressions are bisectable.  Results and message counts are
      identical either way — only CPU cost changes.
    """

    grid_m: int = 50
    space: Rect = UNIT_SPACE
    max_speed: float | None = None
    reachability_pushes: bool = True
    steadiness: float = 0.0
    index_max_entries: int = 32
    enable_caches: bool = True
    #: Batch-geometry backend (``repro.kernels``): ``"numpy"`` runs the
    #: hot-path geometry as columnar array passes, ``"python"`` the
    #: bit-identical scalar fallbacks.  Results are identical either way
    #: (``tests/test_kernel_equivalence.py``); only CPU cost changes.
    #: ``"numpy"`` silently degrades to ``"python"`` when NumPy is absent.
    kernel_backend: str = "numpy"
    #: Batch-size cutoff below which kernel dispatches take the scalar
    #: path even on the NumPy backend (array set-up costs more than it
    #: saves on tiny batches).  Inclusive: a batch of exactly this many
    #: rows vectorises.  Must be at least 1.
    kernel_min_rows: int = 8
    #: Ablation switch: compute the safe region for a batch of range
    #: queries with the Section 5.3 algorithm (True) or by intersecting
    #: per-query strips (False).
    batch_range_regions: bool = True
    #: The anti-storm relief pass (DESIGN.md §6).  Off by default: with
    #: interior-preferring Ir-lp candidates, fair gap splitting, and
    #: poll-paced clients, the residual pinch episodes cost less than the
    #: relief's probes (see benchmarks/test_ablations.py).  Enable for
    #: deployments with very fine position polling and no probe budget.
    anti_storm_relief: bool = False
    #: Robustness knobs (docs/ROBUSTNESS.md).  A probe attempt that the
    #: channel reports as lost (``repro.faults.ProbeTimeout``) is retried
    #: up to ``probe_retries`` times with exponential backoff starting at
    #: ``probe_timeout`` time units; ``probe_budget`` caps the probe
    #: attempts any single update or registration may spend (``None`` =
    #: unlimited).  When an object stays unreachable it enters *degraded
    #: mode*: its effective region widens to the §6.1 reachability circle
    #: so query answers stay conservative, and results referencing it are
    #: flagged rather than silently wrong.
    probe_timeout: float = 0.05
    probe_retries: int = 2
    probe_budget: int | None = None
    #: What ``handle_location_update`` does with a report for an id it
    #: does not know (delayed/duplicated report after deregistration):
    #: ``"raise"`` (strict, the default) or ``"drop"`` (count + event).
    on_unknown_object: str = "raise"
    #: Speed bound used *only* to widen degraded objects' regions when
    #: ``max_speed`` (which also enables the §6.1 shrink machinery) is
    #: unset.  ``None`` with ``max_speed`` unset degrades to the whole
    #: workspace — the only conservative region without a speed bound.
    degraded_max_speed: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.steadiness <= 1.0:
            raise ValueError("steadiness must be within [0, 1]")
        if self.max_speed is not None and self.max_speed <= 0:
            raise ValueError("max_speed must be positive when set")
        if self.kernel_backend not in KERNEL_BACKENDS:
            raise ValueError(
                f"kernel_backend must be one of {KERNEL_BACKENDS}, "
                f"got {self.kernel_backend!r}"
            )
        if self.kernel_min_rows < 1:
            raise ValueError("kernel_min_rows must be at least 1")
        if self.probe_timeout <= 0:
            raise ValueError("probe_timeout must be positive")
        if self.probe_retries < 0:
            raise ValueError("probe_retries must be non-negative")
        if self.probe_budget is not None and self.probe_budget < 1:
            raise ValueError("probe_budget must be positive when set")
        if self.on_unknown_object not in ("raise", "drop"):
            raise ValueError(
                "on_unknown_object must be 'raise' or 'drop', "
                f"got {self.on_unknown_object!r}"
            )
        if self.degraded_max_speed is not None and self.degraded_max_speed <= 0:
            raise ValueError("degraded_max_speed must be positive when set")


@dataclass(slots=True)
class ObjectState:
    """Per-object view maintained by the server.

    ``sr_stamp`` is the lazy-recomputation certificate (docs/PERFORMANCE.md):
    ``(cell id, cell generation)`` recorded when the installed safe region
    is the full rectangle of a query-free grid cell.  While the grid still
    reports the same generation for that cell, recomputing the region would
    provably return the identical rectangle, so the server may skip the
    work.  ``None`` whenever no such certificate holds (caches disabled,
    region constrained by queries, or tightened by a reachability shrink).

    ``sr_cert`` is the delta certificate for query-covered cells:
    ``(cell id, cell generation, ((knn query, clearance), ...))``
    recorded when the installed region was computed with the object
    outside every relevant kNN quarantine circle and only built-in query
    types in the cell.  Each *clearance* is the region's minimum
    distance to that query's centre — the largest quarantine radius the
    region provably avoids.  The safe-region property then makes a
    report a provable no-op while (1) the cell's relevant-query set kept
    its generation, (2) no recorded quarantine radius grew past its
    clearance (a circle no larger than the clearance cannot reach the
    region), and (3) the reported position stays strictly interior to
    the installed region — range rects are immutable and member regions
    are contained in their rects, so no verdict can flip and the
    installed region remains valid.  ``None`` whenever any relevant
    query is a kNN whose quarantine holds the object or the region
    (rank changes are invisible to the clearance check), a custom
    extension type, or when the region was degraded or
    shrink-tightened.  Unlike ``sr_stamp`` it is *not* gated on the
    cache switch — it is a policy applied identically in cached and
    uncached runs (cache transparency).
    """

    safe_region: Rect
    p_lst: Point
    last_update_time: float
    sr_stamp: tuple[tuple[int, int], int] | None = None
    sr_cert: tuple | None = None


@dataclass(slots=True)
class ServerStats:
    """Operation counters and CPU accounting."""

    location_updates: int = 0
    probes: int = 0
    safe_region_pushes: int = 0
    queries_registered: int = 0
    queries_checked: int = 0
    queries_reevaluated: int = 0
    result_changes: int = 0
    cpu_seconds: float = 0.0
    # Robustness counters (docs/ROBUSTNESS.md).  ``probes`` counts only
    # answered probes (they are the billable messages); timed-out
    # attempts and their retries are tallied separately.
    probe_timeouts: int = 0
    probe_retries: int = 0
    unknown_updates: int = 0
    time_regressions: int = 0
    degraded_entries: int = 0


class DatabaseServer:
    """Safe-region-based monitoring server (the paper's SRB scheme)."""

    def __init__(
        self,
        position_oracle: PositionOracle,
        config: ServerConfig | None = None,
        metrics=None,
        events=None,
    ) -> None:
        self.config = config or ServerConfig()
        self._oracle = position_oracle
        self._reachability = (
            ReachabilityModel(self.config.max_speed)
            if self.config.max_speed is not None
            else None
        )
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        #: Structured-event stream (repro.obs.events); the shared no-op
        #: by default, so emission costs one attribute check.
        self.events = NULL_EVENT_LOG if events is None else events
        #: Sequence number of the event causally above whatever the
        #: server is currently doing (the root update/registration, or
        #: the reevaluation in progress); threads ``cause`` links
        #: through probes, shrink pushes, and region installs.
        self._cause: int | None = None
        self._trace = Tracer(self.metrics)
        #: Tick-phase profiler (repro.obs.profile): the shared no-op by
        #: default, so every hook costs one attribute check.  A capture
        #: session swaps in a live :class:`TickProfiler` via
        #: :meth:`attach_profiler`.
        self.profiler = NULL_PROFILER
        self._m_probes = self.metrics.counter("server.probes")
        self._m_pushes = self.metrics.counter("server.safe_region_pushes")
        self._m_updates = self.metrics.counter("server.location_updates")
        self._m_checked = self.metrics.histogram(
            "server.queries_checked_per_report", COUNT_BUCKETS
        )
        self._m_sr_skipped = self.metrics.counter("server.sr_recompute.skipped")
        self._m_fastpath = self.metrics.counter("server.update.fastpath")
        self._m_certified = self.metrics.counter("server.update.certified")
        self._m_probe_timeouts = self.metrics.counter("server.probes.timeouts")
        self._m_probe_retries = self.metrics.counter("server.probes.retries")
        self._m_unknown = self.metrics.counter("server.updates.unknown_object")
        self._m_time_regressions = self.metrics.counter(
            "server.updates.time_regression"
        )
        self._g_degraded = self.metrics.gauge("server.objects.degraded")
        self._caches_on = self.config.enable_caches
        self.kernels = Kernels(
            self.config.kernel_backend, metrics=self.metrics,
            min_rows=self.config.kernel_min_rows, events=self.events,
        )
        #: Columnar mirror of every object's last reported position,
        #: maintained at each register / update / deregister alongside
        #: ``ObjectState.p_lst``.
        self.positions = PositionStore()
        #: Tick-wide kernel work planner (docs/PERFORMANCE.md): batch
        #: update handling gathers the predictable per-report kernel work
        #: into columns, dispatches it in bulk, and the per-report paths
        #: consume the scattered verdicts through ``self._tick_plan``.
        self.planner = TickPlanner(self.kernels, metrics=self.metrics)
        self._tick_plan = None
        self._g_rstar_height = self.metrics.gauge("rstar.height")
        self._g_rstar_nodes = self.metrics.gauge("rstar.nodes")
        self.object_index = RStarTree(
            max_entries=self.config.index_max_entries, kernels=self.kernels
        )
        self.query_index = GridIndex(
            self.config.grid_m,
            self.config.space,
            metrics=self.metrics,
            enable_cache=self.config.enable_caches,
            kernels=self.kernels,
            events=self.events,
        )
        # Cell residency: the store buckets every object into its grid
        # cell with the grid's own arithmetic, so the hot paths read
        # ``positions.cell_of(oid)`` instead of recomputing cells.
        self.query_index.bind_position_store(
            self.positions, metrics=self.metrics
        )
        self._objects: dict[ObjectId, ObjectState] = {}
        #: Unreachable objects (docs/ROBUSTNESS.md): oid -> time the
        #: object entered degraded mode.  While degraded, the installed
        #: region is the §6.1 reachability circle's bounding box around
        #: the last report — conservative by construction — and query
        #: results referencing the object carry a ``degraded`` flag.
        self._degraded: dict[ObjectId, float] = {}
        degraded_speed = (
            self.config.max_speed
            if self.config.max_speed is not None
            else self.config.degraded_max_speed
        )
        self._degraded_model = (
            ReachabilityModel(degraded_speed)
            if degraded_speed is not None
            else None
        )
        #: Server-side monotonic clock: the latest update time processed.
        #: Reports carrying an earlier time (reordered channel) are
        #: clamped to it and counted (``server.updates.time_regression``).
        self._clock = 0.0
        # Per-operation probe accounting: attempts spent against
        # ``probe_budget`` and targets whose probes failed this round.
        self._probe_spent = 0
        self._failed_probes: set[ObjectId] = set()
        #: Deferred slow-path pointify: ``(oid, position)`` of an updater
        #: whose R*-tree entry has not been collapsed to its exact point
        #: yet.  The collapse is only observable through an index read
        #: between ingestion and the location manager's reinstall, so it
        #: runs lazily — just before the first reevaluation that can read
        #: the index — and is skipped entirely for reports that affect
        #: nothing (the reinstall overwrites the entry anyway).
        self._pending_pointify: tuple | None = None
        self.stats = ServerStats()
        # Safe regions whose interior margin falls below this floor
        # trigger the anti-storm relief (see relieve_tight_safe_region).
        cell_extent = min(
            self.config.space.width, self.config.space.height
        ) / self.config.grid_m
        self._margin_floor = 0.0005 * cell_extent

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, oid: ObjectId) -> bool:
        return oid in self._objects

    @property
    def object_count(self) -> int:
        return len(self._objects)

    @property
    def query_count(self) -> int:
        return len(self.query_index)

    def safe_region_of(self, oid: ObjectId) -> Rect:
        """The safe region currently installed for ``oid``."""
        return self._objects[oid].safe_region

    def queries(self) -> frozenset[Query]:
        """All registered queries."""
        return self.query_index.all_queries()

    @property
    def clock(self) -> float:
        """The server's monotonic time: the latest update time processed."""
        return self._clock

    def degraded_objects(self) -> dict[ObjectId, float]:
        """Currently unreachable objects, mapped to degraded-entry time."""
        return dict(self._degraded)

    def is_degraded(self, oid: ObjectId) -> bool:
        return oid in self._degraded

    def validate(self) -> None:
        """Check server-wide invariants (tests); see also ``RStarTree.validate``."""
        self.object_index.validate()
        assert len(self.positions) == len(
            self._objects
        ), "position store out of sync with object table"
        for oid, state in self._objects.items():
            indexed = self.object_index.rect_of(oid)
            assert indexed == state.safe_region, f"index desync for {oid!r}"
            assert state.safe_region.contains_point(
                state.p_lst, eps=1e-9
            ), f"safe region of {oid!r} lost its own location"
            assert self.positions.get(oid) == (
                state.p_lst.x,
                state.p_lst.y,
            ), f"position store desync for {oid!r}"

    def refresh_index_gauges(self) -> None:
        """Publish index-shape gauges (``rstar.height``, ``rstar.nodes``).

        Sampled at bulk load, query registration, and batch boundaries —
        the node-count walk is cheap but pointless per-report.  The grid's
        own gauges (``grid.cells_indexed`` et al.) refresh on mutation.
        """
        profiler = self.profiler
        if profiler.enabled:
            profiler.push("index.maintenance")
            try:
                if self.metrics.enabled:
                    self._g_rstar_height.set(self.object_index.height)
                    self._g_rstar_nodes.set(self.object_index.count_nodes())
            finally:
                profiler.pop()
            return
        if not self.metrics.enabled:
            return
        self._g_rstar_height.set(self.object_index.height)
        self._g_rstar_nodes.set(self.object_index.count_nodes())

    def attach_profiler(self, profiler) -> None:
        """Install a tick-phase profiler (``NULL_PROFILER`` detaches).

        The planner shares the instance so kernel dispatch and scatter
        attribute into the same tick's budget.
        """
        self.profiler = profiler
        self.planner.profiler = profiler

    def profile_start(self, max_ticks: int | None = None) -> None:
        """Begin a profiling session (same surface as ``ShardedServer``)."""
        from repro.obs import TickProfiler

        self.attach_profiler(TickProfiler(max_ticks=max_ticks))

    def profile_stop(self) -> None:
        """End the session; the shared no-op profiler goes back in."""
        self.attach_profiler(NULL_PROFILER)

    def profile_snapshot(self, top_k: int = 10) -> dict:
        """The attached profiler's summary + current cell-occupancy skew.

        The occupancy section is computed from the resident position
        store at snapshot time (it is state, not a per-tick cost) and
        reuses the ``shard.objects.imbalance`` formula.
        """
        summary = self.profiler.to_dict(top_k)
        summary["occupancy"] = occupancy_summary(
            self.positions.cell_occupancy().values()
        )
        return summary

    # ------------------------------------------------------------------
    # Columnar position queries (repro.kernels)
    # ------------------------------------------------------------------
    def known_positions_in(self, rect: Rect) -> list[ObjectId]:
        """Objects whose *last reported* position lies in ``rect``, by id.

        A diagnostic / analysis helper over the columnar store — one batch
        containment pass instead of N point tests.  This is the server's
        knowledge, not ground truth: an object may have drifted within its
        safe region without reporting.
        """
        xs, ys = self.positions.columns()
        mask = self.kernels.points_in_rect(xs, ys, rect)
        return sorted(
            oid for oid, inside in zip(self.positions.ids, mask) if inside
        )

    def nearest_known(self, q: Point, k: int) -> list[ObjectId]:
        """The ``k`` objects whose last reported positions are nearest ``q``.

        Distance ties break deterministically by object id.  Same caveat
        as :meth:`known_positions_in`: last *reported* positions, not
        ground truth.
        """
        ids = self.positions.ids
        if k <= 0 or not ids:
            return []
        # Row order depends on deregistration history (swap-remove), so
        # rank ties by id, not row: sort the id order once and scan
        # columns through it.
        order = sorted(range(len(ids)), key=lambda row: ids[row])
        xs, ys = self.positions.columns()
        sx = [xs[row] for row in order]
        sy = [ys[row] for row in order]
        top = self.kernels.top_k_rows(sx, sy, q.x, q.y, k)
        return [ids[order[row]] for row in top]

    # ------------------------------------------------------------------
    # Object population
    # ------------------------------------------------------------------
    def load_objects(
        self, positions: Iterable[tuple[ObjectId, Point]], time: float = 0.0
    ) -> dict[ObjectId, Rect]:
        """Bulk-register objects before any query exists.

        With no registered queries, every object's safe region is its full
        grid cell — the largest region the framework ever grants.  Returns
        the safe regions to hand to the clients.
        """
        if self.query_count:
            raise RuntimeError("load_objects must run before query registration")
        with self._trace.span("server.load_objects"):
            grid = self.query_index
            pairs = []
            for oid, position in positions:
                if oid in self._objects:
                    raise KeyError(f"object {oid!r} already loaded")
                cell_id = grid.cell_of(position)
                cell = grid.cell_rect(cell_id)
                state = ObjectState(cell, position, time)
                if self._caches_on:
                    # No queries exist yet, so every cell is query-free
                    # and every region is certifiably the full cell.
                    state.sr_stamp = (cell_id, grid.cell_generation(cell_id))
                self._objects[oid] = state
                self.positions.set(oid, position)
                pairs.append((oid, cell))
            self.object_index = bulk_load(
                pairs,
                max_entries=self.config.index_max_entries,
                kernels=self.kernels,
            )
        self.refresh_index_gauges()
        self.stats.cpu_seconds = self._trace.cpu_seconds
        return {oid: rect for oid, rect in pairs}

    def add_object(
        self, oid: ObjectId, position: Point, time: float = 0.0
    ) -> UpdateOutcome:
        """Register one object dynamically, reevaluating affected queries."""
        if oid in self._objects:
            raise KeyError(f"object {oid!r} already loaded")
        self._objects[oid] = ObjectState(Rect.from_point(position), position, time)
        self.positions.set(oid, position)
        self.object_index.insert(oid, Rect.from_point(position))
        return self._process_update(oid, position, None, time)

    def remove_object(self, oid: ObjectId) -> None:
        """Drop an object (its query memberships are *not* reevaluated)."""
        del self._objects[oid]
        self.positions.discard(oid)
        self.object_index.delete(oid)
        if self._degraded.pop(oid, None) is not None:
            self._g_degraded.set(len(self._degraded))

    def evict_object(self, oid: ObjectId, time: float = 0.0) -> UpdateOutcome:
        """Remove ``oid`` and repair every query result referencing it.

        Unlike :meth:`remove_object` (a pure teardown), eviction keeps
        registered query results correct: range results drop the member,
        kNN results that held it are re-evaluated from scratch over the
        remaining objects, and every object probed during the refill gets
        a fresh safe region through the usual ingest / location-manager
        machinery.  This is the migration primitive of the sharded
        deployment (``repro.sharding``): the object keeps existing, but
        on another shard, so this shard must stop answering for it.
        """
        state = self._objects.get(oid)
        if state is None:
            raise KeyError(f"cannot evict unknown object {oid!r}")
        with self._trace.span("server.evict_object"):
            self._probe_spent = 0
            self._failed_probes.clear()
            self._clock = max(self._clock, time)
            self._refresh_degraded(self._clock)
            if self.events.enabled:
                self.events.set_time(self._clock)
                self._cause = self.events.emit(
                    "evict", oid=oid, pos=(state.p_lst.x, state.p_lst.y)
                )
            try:
                outcome = self._evict_object(oid, self._clock)
            finally:
                self._cause = None
        self.refresh_index_gauges()
        self.stats.cpu_seconds = self._trace.cpu_seconds
        return outcome

    def _evict_object(self, oid: ObjectId, time: float) -> UpdateOutcome:
        probed: dict[ObjectId, Point] = {}
        shrunk_only: dict[ObjectId, Rect] = {}
        previous_positions: dict[ObjectId, Point] = {}
        probe = self._make_probe(probed, time)
        constrain = self._make_constrain(time)
        outcome = UpdateOutcome()

        # Take the object out of the indexes *first*: the kNN refills
        # below evaluate over the object index and must not resurrect it.
        self.remove_object(oid)

        # Membership, not geometry, decides which queries need repair: a
        # result member may sit anywhere inside the quarantine area, so
        # scanning the registered queries is the only sound filter.
        referencing = sorted(
            (q for q in self.query_index.all_queries() if oid in q.results),
            key=lambda q: q.query_id,
        )
        events = self.events
        for query in referencing:
            before = _snapshot(query)
            probes_before = set(probed)
            parent_cause = self._cause
            if events.enabled:
                self._cause = events.emit(
                    "reevaluation", cause=parent_cause,
                    query=query.query_id, oid=oid,
                )
            try:
                if isinstance(query, RangeQuery):
                    query.results.discard(oid)
                    shrunk: dict[ObjectId, Rect] = {}
                    quarantine_changed = False
                elif isinstance(query, KNNQuery):
                    evaluation = evaluate_knn(
                        self.object_index,
                        query.center,
                        query.k,
                        probe,
                        order_sensitive=query.order_sensitive,
                        constrain=constrain,
                        kernels=self.kernels,
                    )
                    query.results = list(evaluation.results)
                    query.radius = evaluation.radius
                    shrunk = evaluation.shrunk
                    quarantine_changed = True
                else:
                    # Extension queries own their membership semantics; a
                    # set-style discard is the only generic repair.
                    query.results.discard(oid)
                    shrunk = {}
                    quarantine_changed = False
                fresh = {
                    target: pos
                    for target, pos in probed.items()
                    if target not in probes_before
                }
                previous_positions.update(self._apply_probes(fresh, time))
                shrunk_only.update(self._apply_shrinks(shrunk, probed))
                if quarantine_changed:
                    self.query_index.update(query)
                after = _snapshot(query)
                degraded_members: tuple = ()
                if self._degraded or self._failed_probes:
                    unreachable = self._failed_probes | set(self._degraded)
                    degraded_members = tuple(sorted(
                        (o for o in query.results if o in unreachable),
                        key=repr,
                    ))
                outcome.changes.append(
                    ResultChange(
                        query.query_id, before, after,
                        degraded=degraded_members,
                    )
                )
                if before != after:
                    self.stats.result_changes += 1
                    if events.enabled:
                        events.emit(
                            "result_change", cause=self._cause,
                            query=query.query_id, case="evict",
                            before=_event_snapshot(before),
                            after=_event_snapshot(after),
                            **(
                                {"degraded": list(degraded_members)}
                                if degraded_members else {}
                            ),
                        )
                self.stats.queries_reevaluated += 1
            finally:
                self._cause = parent_cause
        outcome.queries_reevaluated = len(outcome.changes)

        self._ingest_reports(
            list(probed.items()), probe, probed, previous_positions,
            shrunk_only, constrain, outcome, time,
        )
        self._location_manager_phase(
            list(probed), {}, probe, probed, previous_positions,
            shrunk_only, constrain, outcome, time, updater=None,
        )
        return outcome

    # ------------------------------------------------------------------
    # Query registration (Algorithm 1, lines 2-7)
    # ------------------------------------------------------------------
    def register_query(self, query: Query, time: float = 0.0) -> UpdateOutcome:
        """Evaluate a new query from scratch and start monitoring it.

        Every object probed during evaluation is treated as having sent a
        location report: its exact position may contradict *other*
        registered queries (probes can catch an object that has drifted
        past its safe region under finite client polling or message
        delay), so those queries are reevaluated too.  All probed objects
        then receive freshly recomputed safe regions.
        """
        with self._trace.span("server.register_query"):
            self._probe_spent = 0
            self._failed_probes.clear()
            self._clock = max(self._clock, time)
            self._refresh_degraded(self._clock)
            if self.events.enabled:
                self.events.set_time(time)
                self._cause = self.events.emit(
                    "query_registered", query=query.query_id
                )
            try:
                outcome = self._register_query(query, time)
            finally:
                self._cause = None
        self.refresh_index_gauges()
        self.stats.cpu_seconds = self._trace.cpu_seconds
        return outcome

    def _register_query(self, query: Query, time: float) -> UpdateOutcome:
        probed: dict[ObjectId, Point] = {}
        shrunk_only: dict[ObjectId, Rect] = {}
        previous_positions: dict[ObjectId, Point] = {}
        probe = self._make_probe(probed, time)
        constrain = self._make_constrain(time)

        if hasattr(query, "evaluate_over"):
            # Extension query types (repro.core.extensions) bring their own
            # evaluation routine over safe regions.
            evaluation = query.evaluate_over(self.object_index, probe, constrain)
            query.results = set(evaluation.results)
        elif isinstance(query, RangeQuery):
            evaluation = evaluate_range(
                self.object_index, query.rect, probe, constrain,
                kernels=self.kernels,
            )
            query.results = set(evaluation.results)
        elif isinstance(query, KNNQuery):
            evaluation = evaluate_knn(
                self.object_index,
                query.center,
                query.k,
                probe,
                order_sensitive=query.order_sensitive,
                constrain=constrain,
                kernels=self.kernels,
            )
            query.results = list(evaluation.results)
            query.radius = evaluation.radius
        else:
            raise TypeError(f"unsupported query type: {type(query).__name__}")

        previous_positions.update(self._apply_probes(probed, time))
        shrunk_only.update(self._apply_shrinks(evaluation.shrunk, probed))
        self.query_index.insert(query)
        self.stats.queries_registered += 1

        outcome = UpdateOutcome()
        outcome.changes.append(
            ResultChange(query.query_id, None, _snapshot(query))
        )
        self._ingest_reports(
            list(probed.items()), probe, probed, previous_positions,
            shrunk_only, constrain, outcome, time,
        )
        self._location_manager_phase(
            list(probed), {}, probe, probed, previous_positions,
            shrunk_only, constrain, outcome, time, updater=None,
        )
        return outcome

    def deregister_query(self, query: Query) -> None:
        """Stop monitoring ``query`` (Algorithm 1, lines 6-7).

        Safe regions computed while the query was registered remain valid
        (they are conservative), so no object needs to be contacted.
        """
        self.query_index.remove(query)

    # ------------------------------------------------------------------
    # Location updates (Algorithm 1, lines 8-15)
    # ------------------------------------------------------------------
    def handle_location_update(
        self, oid: ObjectId, position: Point, time: float = 0.0
    ) -> UpdateOutcome:
        """Process a source-initiated location update from ``oid``.

        Returns the new safe region for the updater (``safe_region``), new
        safe regions for every probed object (``probed``), and the result
        deltas to push to application servers (``changes``).

        A report for an unknown id — what a delayed or duplicated message
        produces after a deregistration — follows
        ``ServerConfig.on_unknown_object``: ``"raise"`` (strict default)
        or ``"drop"`` (counted, evented, returns an empty outcome).
        """
        state = self._objects.get(oid)
        if state is None:
            return self._handle_unknown_update(oid, position, time)
        previous = state.p_lst
        return self._process_update(oid, position, previous, time)

    def _handle_unknown_update(
        self, oid: ObjectId, position: Point, time: float
    ) -> UpdateOutcome:
        if self.config.on_unknown_object == "raise":
            raise KeyError(
                f"location update for unknown object {oid!r} "
                "(set ServerConfig.on_unknown_object='drop' to tolerate "
                "late reports for deregistered objects)"
            )
        self.stats.unknown_updates += 1
        self._m_unknown.inc()
        if self.events.enabled:
            self.events.set_time(max(time, self._clock))
            self.events.emit(
                "unknown_update", oid=oid, pos=(position.x, position.y)
            )
        return UpdateOutcome()

    def handle_location_updates(
        self, reports: Iterable[tuple[ObjectId, Point]], time: float = 0.0
    ) -> BatchOutcome:
        """Process a batch of same-tick location reports, grouped by cell.

        Reports are handled strictly sequentially — the semantics are
        identical to calling ``handle_location_update`` per report — but
        in a deterministic cell-grouped order: updates landing in the same
        grid cell run back to back, so the per-cell candidate caches, the
        interned cell rectangles, and the memoised per-query geometry stay
        hot across co-located objects.  The order depends only on the
        reports themselves (destination cell, then submission order), not
        on any cache state, so batched runs are reproducible with caches
        on or off.

        A batch holding several reports for the *same* object (duplicated
        or retransmitted messages) disables the cell grouping: sorting
        such reports by destination cell could run them out of submission
        order and land the object on the wrong final position, so the
        whole batch falls back to plain submission order — the documented
        sequential contract holds either way.

        When the batch is cleanly orderable (at least two reports, unique
        ids, monotone time, no event stream, no degraded objects — the
        gate of ``_plannable``), processing runs through
        the tick-wide planner pipeline (docs/PERFORMANCE.md): the
        predictable kernel work of every report — range-affected flips
        and Section 5.3 corner candidates — is gathered into columns and
        dispatched in bulk before the sequential walk, and the certified
        no-op fast path runs inline without per-report span/outcome
        scaffolding.  Results, messages, and ``ServerStats`` are
        bit-identical to the sequential contract; only CPU cost changes.
        """
        reports = list(reports)
        oids = [oid for oid, _ in reports]
        batch = BatchOutcome()
        profiler = self.profiler
        # The ownership token: an outer wrapper (a shard batch op) may
        # already hold the tick — then this batch nests inside it.
        owns_tick = profiler.enabled and profiler.tick_begin()
        try:
            if not reports:
                self.refresh_index_gauges()
                return batch
            if len(set(oids)) != len(oids):
                for i in range(len(reports)):
                    oid, position = reports[i]
                    outcome = self.handle_location_update(oid, position, time)
                    batch.merge(oid, outcome)
                self.refresh_index_gauges()
                return batch
            # One columnar pass computes every destination cell (identical
            # to per-report ``grid.cell_of``); the sort key is unchanged.
            cells = self.query_index.cells_of_points(
                [position for _, position in reports]
            )
            # Stable sort over the already index-ordered range: equal cells
            # keep submission order, so the key collapses to the cell alone.
            ordered = sorted(range(len(reports)), key=cells.__getitem__)
            if self._plannable(oids, time):
                self._bulk_updates(reports, ordered, cells, time, batch)
            else:
                for i in ordered:
                    oid, position = reports[i]
                    outcome = self.handle_location_update(oid, position, time)
                    batch.merge(oid, outcome)
            self.refresh_index_gauges()
            return batch
        finally:
            if owns_tick:
                profiler.tick_end(len(reports))

    @contextmanager
    def planned_tick(
        self, reports: Iterable[tuple[ObjectId, Point]], time: float = 0.0
    ):
        """Pre-plan a tick's kernel work for per-report processing.

        Callers that must drive same-tick reports through
        ``handle_location_update`` individually — a shard replaying an
        op stream with adds and evictions interleaved, say — wrap the
        run in this context to get the tick-wide gather/dispatch
        batching of ``handle_location_updates``.  Every plan entry
        revalidates at consume time (position identity and cell
        generations), so a report invalidated by an interleaved
        operation simply falls back to the scalar path: results are
        bit-identical with or without the plan.

        It shares the gate of ``handle_location_updates``
        (``_plannable``): fewer than two reports, duplicate object ids,
        an enabled event stream, degraded objects, or a non-monotone
        timestamp skip planning entirely.
        """
        reports = list(reports)
        oids = [oid for oid, _ in reports]
        if not self._plannable(oids, time):
            yield
            return
        cells = self.query_index.cells_of_points(
            [position for _, position in reports]
        )
        ordered = sorted(range(len(reports)), key=cells.__getitem__)
        objects = self._objects
        prev_pts = [
            state.p_lst if state is not None else None
            for state in (objects.get(oid) for oid in oids)
        ]
        self._tick_plan = self._plan_tick(reports, ordered, cells, prev_pts)
        try:
            yield
        finally:
            self._tick_plan = None

    def _plannable(self, oids: list, time: float) -> bool:
        """The tick planner's gate, shared by both batch entry points.

        A batch plans only when it holds at least
        ``MIN_PLANNED_REPORTS`` reports with unique object ids (cell
        order must not reorder one object's reports), no event stream
        is recording (it documents per-report causality the bulk path
        elides), no object is degraded, and time is monotone.
        """
        return (
            len(oids) >= MIN_PLANNED_REPORTS
            and len(set(oids)) == len(oids)
            and not self.events.enabled
            and not self._degraded
            and time >= self._clock
        )

    def _plan_tick(self, reports, ordered, cells, prev_pts):
        """Gather the batch's predictable kernel work and dispatch it.

        Walks the reports in processing order, skips those certified for
        the fast path (their buckets are provably empty — nothing to
        plan), and gathers the rest's range-affected rows, kNN quarantine
        gates, and safe-region obstacle rows by *extending* the planner's
        columns with cell-resident column slices (cached per cell pair
        and generation).  Old cells come from the resident position
        store — one dict probe, always equal to ``grid.cell_of(p_lst)``.
        Returns the scattered :class:`~repro.kernels.planner.TickPlan`,
        or ``None`` when no report had plannable work.
        """
        grid = self.query_index
        objects = self._objects
        planner = self.planner
        planner.begin()
        profiler = self.profiler
        if profiler.enabled:
            profiler.push("plan.gather")
        caches_on = self._caches_on
        plan_regions = (
            self.config.batch_range_regions and self.config.steadiness == 0.0
        )
        # Bound-method / bound-dict locals: ``_generations`` and
        # ``_buckets`` are mutated in place but never rebound, so the
        # hoisted accessors stay live across the loop.
        generation_of = grid._generations.get
        has_queries_in_cell = grid._buckets.__contains__
        candidate_queries_ordered = grid.candidate_queries_ordered
        resident_cell_of = self.positions.cell_of
        add_affected = planner.add_affected
        obstacle_columns = planner.obstacle_columns
        add_region = planner.add_region
        any_work = False
        for i in ordered:
            previous = prev_pts[i]
            if previous is None:
                continue  # unknown object: the scalar path decides
            oid, position = reports[i]
            state = objects[oid]
            cell_old = resident_cell_of(oid)
            cell_new = cells[i]
            stamp = state.sr_stamp
            if (
                caches_on
                and stamp is not None
                and stamp[0] == cell_old
                and stamp[1] == generation_of(cell_old, 0)
                and (
                    cell_new == cell_old
                    or not has_queries_in_cell(cell_new)
                )
            ):
                continue  # certified fast path: no reevaluation happens
            cert = state.sr_cert
            if cert is not None and cell_new == cell_old \
                    and cert[0] == cell_old:
                # Plan-time preview of the delta certificate: a report
                # the sequential loop will certify has nothing to plan.
                # Mid-tick radius growth can still fail the authoritative
                # consume-time check — that report then runs unplanned,
                # which is slower but identical in outcome.
                region = state.safe_region
                if (
                    region.min_x < position.x < region.max_x
                    and region.min_y < position.y < region.max_y
                    and cert[1] == generation_of(cell_old, 0)
                ):
                    for q, r in cert[2]:
                        if q.radius > r:
                            break
                    else:
                        continue
            candidates = candidate_queries_ordered(position, previous)
            if cell_new == cell_old:
                cell_pair = (cell_new,)
                generations = (generation_of(cell_new, 0),)
            else:
                cell_pair = (cell_new, cell_old)
                generations = (
                    generation_of(cell_new, 0), generation_of(cell_old, 0)
                )
            add_affected(
                oid, position, previous, candidates, cell_pair, generations,
            )
            any_work = True
            if plan_regions:
                obstacles = obstacle_columns(
                    cell_new, generations[0], grid.relevant_queries(cell_new)
                )
                if obstacles is not None:
                    cell = grid.cell_rect(cell_new)
                    add_region(
                        oid, position, cell_new, cell,
                        quadrant_extents(position, cell), obstacles,
                    )
        # ``finish`` runs inside the gather phase; the planner opens its
        # own ``kernel.dispatch`` / ``report.scatter`` child phases.
        try:
            return planner.finish() if any_work else None
        finally:
            if profiler.enabled:
                profiler.pop()

    def _bulk_updates(self, reports, ordered, cells, time, batch) -> None:
        """Planner-backed batch processing (see ``handle_location_updates``).

        Strictly sequential semantics: each report either takes the
        inline certified fast path — the exact commits of
        ``_fastpath_update`` without the per-report span and
        ``UpdateOutcome`` scaffolding — or runs the full
        ``handle_location_update`` path, which consumes the tick plan
        through ``self._tick_plan`` where its entries are still valid.
        """
        grid = self.query_index
        objects = self._objects
        positions = self.positions
        object_index = self.object_index
        caches_on = self._caches_on
        metrics_on = self.metrics.enabled
        # Previous positions in one pass; their cells are resident in
        # the position store (``positions.cell_of`` — no recompute).
        prev_pts = []
        for i, (oid, _) in enumerate(reports):
            state = objects.get(oid)
            prev_pts.append(state.p_lst if state is not None else None)
        self._tick_plan = self._plan_tick(reports, ordered, cells, prev_pts)
        # The first sequential report would advance the clock to
        # ``time`` (monotonicity was checked by the caller); committing
        # it up front keeps inline-fastpath timestamps identical.
        self._clock = time
        fast_n = 0
        cert_n = 0
        objects_get = objects.get
        positions_move = positions.move
        resident_cell_of = positions.cell_of
        # Never rebound, only mutated — see the same hoists in _plan_tick.
        generation_of = grid._generations.get
        has_queries_in_cell = grid._buckets.__contains__
        try:
            for i in ordered:
                oid, position = reports[i]
                state = objects_get(oid)
                fast = False
                if (
                    state is not None
                    and not self._degraded
                ):
                    # ``sr_stamp`` is only ever set with caches on; the
                    # delta certificate applies in either mode.
                    previous = state.p_lst
                    if previous is not None:
                        # ``previous`` is always the stored position
                        # (every ``p_lst`` write pairs with
                        # ``positions.set``), so its cell is resident.
                        cell_old = resident_cell_of(oid)
                        if cell_old is None:
                            cell_old = grid.cell_of(previous)
                        stamp = state.sr_stamp
                        if (
                            stamp is not None
                            and stamp[0] == cell_old
                            and stamp[1] == generation_of(cell_old, 0)
                        ):
                            cell_new = cells[i]
                            if cell_new == cell_old or not (
                                has_queries_in_cell(cell_new)
                            ):
                                # Inline fast path: the exact state
                                # commits of ``_fastpath_update``.
                                state.p_lst = position
                                positions_move(
                                    oid, position.x, position.y, cell_new
                                )
                                state.last_update_time = time
                                if cell_new != cell_old:
                                    region = grid.cell_rect(cell_new)
                                    state.safe_region = region
                                    object_index.update(oid, region)
                                    state.sr_stamp = (
                                        cell_new,
                                        generation_of(cell_new, 0),
                                    )
                                    state.sr_cert = None
                                fast = True
                        elif cells[i] == cell_old:
                            # Inline ``_certified_update``: a delta-
                            # certified no-op inside a query-covered
                            # cell (strict interior of the installed
                            # region, generation and radii unchanged).
                            cert = state.sr_cert
                            if cert is not None and cert[0] == cell_old:
                                region = state.safe_region
                                x = position.x
                                y = position.y
                                if (
                                    region.min_x < x < region.max_x
                                    and region.min_y < y < region.max_y
                                    and cert[1] == generation_of(
                                        cell_old, 0
                                    )
                                ):
                                    for q, r in cert[2]:
                                        if q.radius > r:
                                            break
                                    else:
                                        state.p_lst = position
                                        positions_move(oid, x, y, cell_old)
                                        state.last_update_time = time
                                        fast = True
                                        cert_n += 1
                if fast:
                    fast_n += 1
                    # Inline ``BatchOutcome.merge`` of an outcome whose
                    # only payload is the (unchanged) safe region.
                    batch.regions[oid] = state.safe_region
                    if batch.missed:
                        batch.missed = [
                            t for t in batch.missed if t != oid
                        ]
                    if metrics_on:
                        self._m_checked.observe(0)
                    continue
                outcome = self.handle_location_update(oid, position, time)
                batch.merge(oid, outcome)
        finally:
            self._tick_plan = None
        if fast_n:
            self.stats.location_updates += fast_n
            if metrics_on:
                self._m_updates.inc(fast_n)
                self._m_fastpath.inc(fast_n)
                if cert_n:
                    self._m_certified.inc(cert_n)
            self.stats.cpu_seconds = self._trace.cpu_seconds

    def _process_update(
        self,
        oid: ObjectId,
        position: Point,
        previous: Point | None,
        time: float,
    ) -> UpdateOutcome:
        profiler = self.profiler
        # Auto-root: an update arriving outside a batch (the simulator's
        # per-event path) is its own one-report tick; inside a batch the
        # open tick wins (tick_begin returns False).
        owns_tick = profiler.enabled and profiler.tick_begin()
        try:
            return self._process_update_traced(oid, position, previous, time)
        finally:
            if owns_tick:
                profiler.tick_end(1)

    def _process_update_traced(
        self,
        oid: ObjectId,
        position: Point,
        previous: Point | None,
        time: float,
    ) -> UpdateOutcome:
        with self._trace.span("server.update"):
            self.stats.location_updates += 1
            self._m_updates.inc()
            self._probe_spent = 0
            self._failed_probes.clear()
            time = self._advance_clock(oid, time)
            self._refresh_degraded(time)
            events = self.events
            if events.enabled:
                events.set_time(time)
                self._cause = events.emit(
                    "update",
                    oid=oid,
                    pos=(position.x, position.y),
                    prev=(
                        (previous.x, previous.y)
                        if previous is not None else None
                    ),
                )
            if self._degraded and oid in self._degraded:
                # The object reported: it is reachable again.
                self._exit_degraded(oid, time)
            try:
                outcome = None
                if previous is not None:
                    # With caches off ``sr_stamp`` is never set, so this
                    # reduces to the (cache-independent) delta
                    # certificate check.
                    outcome = self._fastpath_update(
                        oid, position, previous, time
                    )
                    if outcome is not None and events.enabled:
                        events.emit("fastpath", cause=self._cause, oid=oid)
                if outcome is None:
                    outcome = self._slowpath_update(
                        oid, position, previous, time
                    )
            finally:
                self._cause = None
        self.stats.cpu_seconds = self._trace.cpu_seconds
        return outcome

    def _fastpath_update(
        self,
        oid: ObjectId,
        position: Point,
        previous: Point,
        time: float,
    ) -> UpdateOutcome | None:
        """Zero-churn handling of an update that provably changes nothing.

        Applies when the updater's ``sr_stamp`` certifies that its region
        is the full rectangle of a query-free cell and the destination
        cell is query-free too.  Both candidate buckets are then empty, so
        there is no reevaluation and no probe, and the recomputed safe
        region of a query-free cell is exactly that cell's rectangle — the
        full path's pointify-then-recompute R*-tree churn (two tree
        updates) collapses to zero (same cell) or one (cell crossing).
        Returns ``None`` when the preconditions fail; the full path runs.
        """
        grid = self.query_index
        state = self._objects[oid]
        stamp = state.sr_stamp
        if previous is state.p_lst:
            # The stored position's cell is resident in the store.
            cell_old = self.positions.cell_of(oid)
            if cell_old is None:
                cell_old = grid.cell_of(previous)
        else:
            cell_old = grid.cell_of(previous)
        if (
            stamp is None
            or stamp[0] != cell_old
            or stamp[1] != grid.cell_generation(cell_old)
        ):
            return self._certified_update(oid, state, position, cell_old, time)
        cell_new = grid.cell_of(position)
        if cell_new != cell_old and grid.has_queries_in_cell(cell_new):
            return None
        # Commit the reported position before any region install so the
        # ``safe_region`` event (and its containment invariant) sees the
        # position the region was granted for.
        state.p_lst = position
        self.positions.move(oid, position.x, position.y, cell_new)
        state.last_update_time = time
        if cell_new != cell_old:
            region = grid.cell_rect(cell_new)
            self._install_safe_region(oid, region)
            state.sr_stamp = (cell_new, grid.cell_generation(cell_new))
            state.sr_cert = None
        self._m_fastpath.inc()
        self._m_checked.observe(0)
        outcome = UpdateOutcome()
        outcome.safe_region = state.safe_region
        return outcome

    def _certified_update(
        self,
        oid: ObjectId,
        state: "ObjectState",
        position: Point,
        cell_old: tuple,
        time: float,
    ) -> UpdateOutcome | None:
        """Delta-certified no-op handling inside a query-covered cell.

        Consumes ``ObjectState.sr_cert``: when the report stays strictly
        interior to the installed safe region, the cell kept its
        relevant-query generation, and no recorded kNN quarantine radius
        grew past its install-time value, the safe-region property
        guarantees no query verdict can have flipped and the installed
        region is still valid for the new position — the report commits
        with zero reevaluation and zero index churn.  The strict-interior
        requirement also pins the report to the certified cell (the
        region is contained in it), so no cell arithmetic is needed.
        """
        cert = state.sr_cert
        if cert is None or cert[0] != cell_old:
            return None
        region = state.safe_region
        x = position.x
        y = position.y
        if not (
            region.min_x < x < region.max_x
            and region.min_y < y < region.max_y
        ):
            return None
        if cert[1] != self.query_index.cell_generation(cell_old):
            return None
        for q, r in cert[2]:
            if q.radius > r:
                return None
        state.p_lst = position
        self.positions.move(oid, x, y, cell_old)
        state.last_update_time = time
        self._m_fastpath.inc()
        self._m_certified.inc()
        self._m_checked.observe(0)
        outcome = UpdateOutcome()
        outcome.safe_region = region
        return outcome

    def _slowpath_update(
        self,
        oid: ObjectId,
        position: Point,
        previous: Point | None,
        time: float,
    ) -> UpdateOutcome:
        state = self._objects[oid]
        state.p_lst = position
        self.positions.set(oid, position)
        state.last_update_time = time
        if self.config.anti_storm_relief:
            # Relief scans the index freely mid-phase; keep the eager
            # pointify so it always sees the exact position.
            self.object_index.update(oid, Rect.from_point(position))
        else:
            # Defer the pointify: it only matters if some reevaluation
            # actually reads the index before the location manager
            # reinstalls the entry.  ``_do_reevaluate_affected`` flushes
            # it just in time; otherwise the entry is never touched.
            self._pending_pointify = (oid, position)

        probed: dict[ObjectId, Point] = {}
        shrunk_only: dict[ObjectId, Rect] = {}
        previous_positions: dict[ObjectId, Point] = {}
        probe = self._make_probe(probed, time)
        constrain = self._make_constrain(time)
        outcome = UpdateOutcome()

        try:
            self._ingest_reports(
                [(oid, position)], probe, probed, previous_positions,
                shrunk_only, constrain, outcome, time,
                initial_previous={oid: previous},
            )
            outcome.queries_reevaluated = len(outcome.changes)

            targets = [oid] + [target for target in probed if target != oid]
            self._location_manager_phase(
                targets, {oid: previous}, probe, probed, previous_positions,
                shrunk_only, constrain, outcome, time, updater=oid,
            )
        finally:
            self._pending_pointify = None
        return outcome

    def _ingest_reports(self, *args, **kwargs) -> None:
        # Inline segment clock (``TickProfiler.acc_ingest``): cheaper
        # than a push/pop pair on a phase entered once per report.
        profiler = self.profiler
        timed = profiler.enabled and profiler.tick_open
        if timed:
            profiler.in_ingest = True
            start = perf_counter()
        try:
            # Skip the no-op span scaffolding when tracing is off
            # (behaviourally identical, measurably cheaper).
            if self._trace.noop_spans():
                self._do_ingest_reports(*args, **kwargs)
                return
            with self._trace.span("ingest"):
                self._do_ingest_reports(*args, **kwargs)
        finally:
            if timed:
                profiler.acc_ingest += perf_counter() - start
                profiler.in_ingest = False

    def _do_ingest_reports(
        self,
        initial_reports: list[tuple[ObjectId, Point]],
        probe,
        probed: dict[ObjectId, Point],
        previous_positions: dict[ObjectId, Point],
        shrunk_only: dict[ObjectId, Rect],
        constrain,
        outcome: UpdateOutcome,
        time: float,
        initial_previous: dict[ObjectId, Point | None] | None = None,
    ) -> None:
        """Reevaluate queries for a cascade of position reports.

        Every position report — a source-initiated update or a probed
        position — goes through affected-query reevaluation.  A probe can
        catch an object outside its safe region (clients detect crossings
        at a finite polling rate, and messages are delayed), so the probed
        position may contradict *other* queries' results; those queries
        must be fixed now, or the error persists until the object happens
        to report again.  Reevaluation may probe further objects, whose
        reports join the queue; each object is ingested at most once.
        """
        initial_previous = initial_previous or {}
        reports = list(initial_reports)
        reported = {r_oid for r_oid, _ in reports}
        while reports:
            r_oid, r_pos = reports.pop(0)
            r_prev = initial_previous.get(
                r_oid, previous_positions.get(r_oid)
            )
            self._reevaluate_affected(
                r_oid, r_pos, r_prev, probe, probed, previous_positions,
                shrunk_only, constrain, outcome, time,
            )
            for target, target_pos in probed.items():
                if target not in reported:
                    reported.add(target)
                    reports.append((target, target_pos))

    def _location_manager_phase(self, *args, **kwargs) -> None:
        # The phase scatters freshly computed regions back onto reports;
        # safe-region *construction* is its ``safe_region`` child phase.
        profiler = self.profiler
        timed = profiler.enabled and profiler.tick_open
        if timed:
            start = perf_counter()
        try:
            if self._trace.noop_spans():
                self._do_location_manager_phase(*args, **kwargs)
                return
            with self._trace.span("location_manager"):
                self._do_location_manager_phase(*args, **kwargs)
        finally:
            if timed:
                profiler.acc_scatter += perf_counter() - start

    def _do_location_manager_phase(
        self,
        targets: list[ObjectId],
        initial_previous: dict[ObjectId, Point | None],
        probe,
        probed: dict[ObjectId, Point],
        previous_positions: dict[ObjectId, Point],
        shrunk_only: dict[ObjectId, Rect],
        constrain,
        outcome: UpdateOutcome,
        time: float,
        updater: ObjectId | None,
    ) -> None:
        """Recompute safe regions for every object that reported (§5).

        Processed as a worklist: when a freshly computed region has
        (near-)zero room, the anti-storm relief may probe further objects,
        whose positions are then ingested like any other report and whose
        safe regions are recomputed in turn.
        """
        def prev_lookup(target):
            if target in initial_previous:
                return initial_previous[target]
            return previous_positions.get(target)

        # Hoisted out of the worklist loop (one lookup per report adds
        # up).  The grid's generation dict is only ever mutated in
        # place, never rebound, so binding its ``.get`` is safe.
        objects = self._objects
        grid = self.query_index
        cell_of = grid.cell_of
        resident_cell_of = self.positions.cell_of
        generation_of = grid._generations.get
        cell_rect_of_point = grid.cell_rect_of_point
        install_safe_region = self._install_safe_region
        failed_probes = self._failed_probes

        queue: list[ObjectId] = list(targets)
        queued = set(queue)
        completed: set[ObjectId] = set()
        while queue:
            target = queue.pop(0)
            queued.discard(target)
            if target in failed_probes:
                # Unreachable this round: the widened degraded region
                # installed by ``_apply_probes`` stands — recomputing a
                # safe region around the stale fix would be unsound, and
                # there is no client to deliver one to anyway.
                shrunk_only.pop(target, None)
                if target not in outcome.missed:
                    outcome.missed.append(target)
                completed.add(target)
                continue
            state = objects[target]
            target_pos = state.p_lst
            stamp = state.sr_stamp
            # ``target_pos`` is the stored position, so its cell is
            # resident in the position store (one dict probe).
            target_cell = resident_cell_of(target)
            if target_cell is None:
                target_cell = cell_of(target_pos)
            if (
                stamp is not None
                and stamp[0] == target_cell
                and stamp[1] == generation_of(stamp[0], 0)
            ):
                # Lazy recomputation: the stamp certifies the installed
                # region is the full, still query-free cell — recomputing
                # would return the identical rectangle.  The region must
                # still be (re)installed: ingestion pointified the
                # object's index entry.  Relief cannot apply either: a
                # full-cell region has the same interior margin as its
                # cell, which contradicts the trigger condition below.
                self._m_sr_skipped.inc()
                if self.events.enabled:
                    self.events.emit(
                        "sr_skip", cause=self._cause, oid=target
                    )
                region = state.safe_region
                shrunk_only.pop(target, None)
                pending = self._pending_pointify
                if pending is not None and pending[0] == target:
                    # The deferred pointify never ran: the index entry
                    # still holds exactly ``region``, so the reinstall's
                    # delete+insert is a no-op — emit the event and keep
                    # the entry untouched.
                    self._pending_pointify = None
                    if self.events.enabled:
                        self.events.emit(
                            "safe_region", cause=self._cause, oid=target,
                            region=(region.min_x, region.min_y,
                                    region.max_x, region.max_y),
                            pos=(state.p_lst.x, state.p_lst.y),
                        )
                else:
                    install_safe_region(target, region)
                completed.add(target)
                if target == updater:
                    outcome.safe_region = region
                else:
                    outcome.probed[target] = region
                continue
            cert = state.sr_cert
            if cert is not None and cert[0] == target_cell:
                region = state.safe_region
                if (
                    region.min_x < target_pos.x < region.max_x
                    and region.min_y < target_pos.y < region.max_y
                    and cert[1] == generation_of(target_cell, 0)
                ):
                    for q, r in cert[2]:
                        if q.radius > r:
                            break
                    else:
                        if (
                            not self.config.anti_storm_relief
                            or interior_margin(region, target_pos)
                            >= self._margin_floor
                        ):
                            # Delta-certificate reinstall: the recorded
                            # clearances prove the installed region still
                            # avoids every relevant quarantine and keeps
                            # every verdict, so recomputing would only
                            # re-centre it.  Reinstalling restores the
                            # index entry that ingestion pointified —
                            # mostly for probed targets, whose exact
                            # position landed strictly inside their
                            # standing region.  (With anti-storm relief
                            # enabled, a tight region falls through so
                            # the relief trigger still sees it.)
                            self._m_sr_skipped.inc()
                            if self.events.enabled:
                                self.events.emit(
                                    "sr_skip", cause=self._cause, oid=target
                                )
                            shrunk_only.pop(target, None)
                            pending = self._pending_pointify
                            if pending is not None and pending[0] == target:
                                # The deferred pointify never ran: the
                                # entry still holds exactly ``region``.
                                self._pending_pointify = None
                            else:
                                install_safe_region(target, region)
                            completed.add(target)
                            if target == updater:
                                outcome.safe_region = region
                            else:
                                outcome.probed[target] = region
                            continue
            region = self._full_safe_region(
                target, target_pos, prev_lookup(target)
            )
            cell = cell_rect_of_point(target_pos)
            if (
                self.config.anti_storm_relief
                and interior_margin(region, target_pos) < self._margin_floor
                and interior_margin(cell, target_pos) >= self._margin_floor
            ):
                # Tight for a query-related reason (an object hugging its
                # own grid-cell edge resolves itself at the next crossing).
                relieved, fresh = self._relieve(
                    target, target_pos, probe, probed, previous_positions,
                    time,
                )
                # Relief probes are position reports too: fix any query
                # their exact positions contradict, then queue their
                # safe-region recomputation.
                for other, other_pos in fresh.items():
                    self._reevaluate_affected(
                        other, other_pos, previous_positions.get(other),
                        probe, probed, previous_positions, shrunk_only,
                        constrain, outcome, time,
                    )
                    if other not in queued and other != target:
                        completed.discard(other)
                        queued.add(other)
                        queue.append(other)
                if relieved:
                    region = self._full_safe_region(
                        target, target_pos, prev_lookup(target)
                    )
            shrunk_only.pop(target, None)
            install_safe_region(target, region)
            completed.add(target)
            if target == updater:
                outcome.safe_region = region
            else:
                outcome.probed[target] = region
        for target, region in shrunk_only.items():
            outcome.probed[target] = region

    def _relieve(
        self,
        target: ObjectId,
        position: Point,
        probe,
        probed: dict[ObjectId, Point],
        previous_positions: dict[ObjectId, Point],
        time: float,
    ) -> tuple[bool, dict[ObjectId, Point]]:
        """Anti-storm relief: widen the slack around a pinched object.

        Returns ``(changed, fresh)``: whether anything changed (so the
        caller must recompute the region) and the positions of any objects
        the relief probed.  Quarantine-radius adjustments are applied to
        the queries directly.
        """
        all_fresh: dict[ObjectId, Point] = {}
        changed_radius = False
        for query in sorted(
            self.query_index.queries_at(position), key=lambda q: q.query_id
        ):
            if not isinstance(query, KNNQuery):
                continue
            # Only relieve the queries whose own constraint is the pinch;
            # probing neighbours of a query with ample slack is waste.
            piece = knn_safe_region(
                query, target, position,
                self.query_index.cell_rect_of_point(position),
                self.object_index.rect_of,
            )
            if interior_margin(piece, position) >= self._margin_floor:
                continue
            probes_before = set(probed)
            relief = relieve_tight_safe_region(
                query, target, position, self.object_index, probe,
                already_probed=frozenset(probed),
                min_gain=self._margin_floor,
            )
            fresh = {
                other: pos
                for other, pos in probed.items()
                if other not in probes_before
            }
            if fresh:
                previous_positions.update(self._apply_probes(fresh, time))
                all_fresh.update(fresh)
            if relief.quarantine_changed:
                changed_radius = True
                self.query_index.update(query)
        return (changed_radius or bool(all_fresh), all_fresh)

    def _reevaluate_affected(self, *args, **kwargs) -> None:
        # Called once per report; skip the no-op span scaffolding when
        # tracing is off (behaviourally identical, measurably cheaper).
        # The profiler's ``in_ingest`` flag routes the segment to
        # ``tick;ingest;reevaluate`` or ``tick;report.scatter;reevaluate``
        # (the relief path reevaluates from inside the scatter phase).
        profiler = self.profiler
        timed = profiler.enabled and profiler.tick_open
        if timed:
            start = perf_counter()
        try:
            if self._trace.noop_spans():
                self._do_reevaluate_affected(*args, **kwargs)
                return
            with self._trace.span("reevaluate"):
                self._do_reevaluate_affected(*args, **kwargs)
        finally:
            if timed:
                if profiler.in_ingest:
                    profiler.acc_reev_in += perf_counter() - start
                else:
                    profiler.acc_reev_out += perf_counter() - start

    def _do_reevaluate_affected(
        self,
        oid: ObjectId,
        position: Point,
        previous: Point | None,
        probe,
        probed: dict[ObjectId, Point],
        previous_positions: dict[ObjectId, Point],
        shrunk_only: dict[ObjectId, Rect],
        constrain,
        outcome: UpdateOutcome,
        time: float,
    ) -> None:
        """Reevaluate every query affected by one position report."""
        # A planned tick already gathered this report's candidate set
        # and batched its range-membership flips in one tick-wide
        # dispatch; consume the verdicts when they are still valid (the
        # plan validates position identity and cell generations).
        plan = self._tick_plan
        planned = (
            plan.take_affected(oid, position, previous, self.query_index)
            if plan is not None
            else None
        )
        if planned is not None:
            ordered, hits, kverdicts = planned
        else:
            ordered = self.query_index.candidate_queries_ordered(
                position, previous
            )
            hits = kverdicts = None
        outcome.queries_checked += len(ordered)
        self.stats.queries_checked += len(ordered)
        self._m_checked.observe(len(ordered))
        # Delta-driven consume: plain range queries take their
        # membership-flip verdicts and plain kNN queries their
        # quarantine gates from the tick plan's fused dispatches — a
        # merge walk over ``ordered`` (``hits``/``kverdicts`` preserve
        # candidate order), so untouched members cost one pointer
        # comparison.  Unplanned, range flips come from one batch pass
        # over the rect columns (``Kernels.range_affected`` is exactly
        # ``RangeQuery.is_affected_by``) and everything else stays
        # scalar.  ``type`` not ``isinstance``: a subclass may override
        # ``is_affected_by``.
        affected: list | None = None
        if hits is not None:
            affected = []
            ri = 0
            rn = len(hits)
            ki = 0
            kn = len(kverdicts)
            for q in ordered:
                tq = type(q)
                if tq is RangeQuery:
                    if ri < rn and hits[ri][0] is q:
                        affected.append(hits[ri])
                        ri += 1
                elif tq is KNNQuery:
                    if ki < kn and kverdicts[ki][0] is q:
                        _, hit, gates, planned_radius = kverdicts[ki]
                        ki += 1
                        if planned_radius != q.radius:
                            # An earlier report's reevaluation moved
                            # this quarantine mid-tick (no generation
                            # bump) — the planned gates are stale.
                            if q.is_affected_by(position, previous):
                                affected.append((q, None))
                        elif hit:
                            affected.append((q, gates))
                    elif q.is_affected_by(position, previous):
                        affected.append((q, None))
                elif q.is_affected_by(position, previous):
                    affected.append((q, None))
        if affected is None:
            range_rows = [
                i for i, q in enumerate(ordered) if type(q) is RangeQuery
            ]
            flags: list[bool | None] = [None] * len(ordered)
            if len(range_rows) >= self.kernels.min_rows:
                rects = [ordered[i].rect for i in range_rows]
                mask = self.kernels.range_affected(
                    [r.min_x for r in rects],
                    [r.min_y for r in rects],
                    [r.max_x for r in rects],
                    [r.max_y for r in rects],
                    position,
                    previous,
                )
                for i, flag in zip(range_rows, mask):
                    flags[i] = flag
            affected = [
                (q, None)
                for i, q in enumerate(ordered)
                if (
                    flags[i]
                    if flags[i] is not None
                    else q.is_affected_by(position, previous)
                )
            ]
        if affected and self._pending_pointify is not None:
            # Flush the deferred pointify before any reevaluation that
            # can read the index (kNN evaluation, extension hooks).
            # Plain range flips never touch the index, so a pure-range
            # affected set leaves the entry for the reinstall.
            for query, _ in affected:
                if type(query) is not RangeQuery:
                    p_oid, p_pos = self._pending_pointify
                    self._pending_pointify = None
                    self.object_index.update(p_oid, Rect.from_point(p_pos))
                    break
        profiler = self.profiler
        profile_on = profiler.enabled
        if profile_on:
            # Hotspot attribution: the report's object, its landing cell
            # (candidate rows stand in for kernel rows), and — below —
            # per-query reevaluation seconds.
            profiler.note_report(
                oid, self.query_index.cell_of(position),
                len(ordered), len(affected),
            )
        events = self.events
        for query, inside in affected:
            started = perf_counter() if profile_on else 0.0
            before = _snapshot(query)
            probes_before = set(probed)
            parent_cause = self._cause
            if events.enabled:
                # Emitted *before* the work so probes and shrinks issued
                # inside the reevaluation chain to it, completing the
                # update → query → probe → result-change causal path.
                self._cause = events.emit(
                    "reevaluation", cause=parent_cause,
                    query=query.query_id, oid=oid,
                )
            try:
                if hasattr(query, "reevaluate_for"):
                    reevaluation = query.reevaluate_for(
                        oid, position, self.object_index, probe, constrain
                    )
                elif isinstance(query, RangeQuery):
                    reevaluation = reevaluate_range(
                        query, oid, position, inside=inside
                    )
                else:
                    reevaluation = reevaluate_knn(
                        query,
                        oid,
                        position,
                        previous,
                        self.object_index,
                        probe,
                        self.object_index.rect_of,
                        constrain,
                        kernels=self.kernels,
                        gates=inside,
                    )
                fresh = {
                    target: pos
                    for target, pos in probed.items()
                    if target not in probes_before
                }
                previous_positions.update(self._apply_probes(fresh, time))
                shrunk_only.update(
                    self._apply_shrinks(reevaluation.shrunk, probed)
                )
                if reevaluation.quarantine_changed:
                    self.query_index.update(query)
                after = _snapshot(query)
                degraded_members: tuple = ()
                if self._degraded or self._failed_probes:
                    # Flag result members whose membership rests on a
                    # stale position: consumers see "possibly in the
                    # result", never a silently wrong answer.
                    unreachable = self._failed_probes | set(self._degraded)
                    degraded_members = tuple(sorted(
                        (o for o in query.results if o in unreachable),
                        key=repr,
                    ))
                outcome.changes.append(
                    ResultChange(
                        query.query_id, before, after,
                        degraded=degraded_members,
                    )
                )
                if before != after:
                    self.stats.result_changes += 1
                    if events.enabled:
                        events.emit(
                            "result_change", cause=self._cause,
                            query=query.query_id,
                            case=getattr(reevaluation, "case", ""),
                            before=_event_snapshot(before),
                            after=_event_snapshot(after),
                            **(
                                {"degraded": list(degraded_members)}
                                if degraded_members else {}
                            ),
                        )
                self.stats.queries_reevaluated += 1
            finally:
                self._cause = parent_cause
                if profile_on:
                    profiler.note_query(
                        query.query_id, perf_counter() - started
                    )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _make_probe(self, probed: dict[ObjectId, Point], time: float):
        def probe(target: ObjectId) -> Point:
            position = self._attempt_probe(target)
            if position is None:
                # Unreachable past the retry budget: answer with the last
                # report so evaluation can finish, remember the failure so
                # ``_apply_probes`` widens the object's region to the
                # reachability circle instead of pointifying a stale fix.
                self._failed_probes.add(target)
                position = self._objects[target].p_lst
            else:
                self._failed_probes.discard(target)
                self.stats.probes += 1
                self._m_probes.inc()
                if self.events.enabled:
                    # cause is read at call time: probes issued during a
                    # query's reevaluation chain to that reevaluation
                    # event.
                    self.events.emit(
                        "probe", cause=self._cause, oid=target,
                        pos=(position.x, position.y),
                    )
            probed[target] = position
            return position

        return probe

    def _attempt_probe(self, target: ObjectId) -> Point | None:
        """One probe with bounded retry, backoff, and the per-op budget.

        Returns the answered position, or ``None`` when every attempt
        timed out or the budget ran dry — the caller degrades the object.
        """
        config = self.config
        for attempt in range(config.probe_retries + 1):
            if (
                config.probe_budget is not None
                and self._probe_spent >= config.probe_budget
            ):
                self.stats.probe_timeouts += 1
                self._m_probe_timeouts.inc()
                if self.events.enabled:
                    self.events.emit(
                        "probe_timeout", cause=self._cause, oid=target,
                        attempt=attempt, reason="budget",
                    )
                return None
            if attempt:
                self.stats.probe_retries += 1
                self._m_probe_retries.inc()
                if self.events.enabled:
                    self.events.emit(
                        "probe_retry", cause=self._cause, oid=target,
                        attempt=attempt,
                        backoff=config.probe_timeout * (2 ** (attempt - 1)),
                    )
            self._probe_spent += 1
            try:
                return self._oracle(target)
            except ProbeTimeout:
                self.stats.probe_timeouts += 1
                self._m_probe_timeouts.inc()
                if self.events.enabled:
                    self.events.emit(
                        "probe_timeout", cause=self._cause, oid=target,
                        attempt=attempt, reason="timeout",
                    )
        return None

    def _make_constrain(self, time: float):
        if self._reachability is None:
            return None

        def constrain(target: ObjectId, region: Rect) -> Rect:
            state = self._objects[target]
            return self._reachability.constrain(
                region, state.p_lst, state.last_update_time, time
            )

        return constrain

    def _apply_probes(
        self, probed: dict[ObjectId, Point], time: float
    ) -> dict[ObjectId, Point]:
        """Collapse probed objects' index entries to their exact points.

        Returns each probed object's *previous* reported position (needed
        as the movement direction for the weighted-perimeter objective).
        """
        # Called once per reevaluated query (usually with an empty dict);
        # skip the no-op span scaffolding when tracing is off.
        if self._trace.noop_spans():
            return self._do_apply_probes(probed, time)
        with self._trace.span("probe"):
            return self._do_apply_probes(probed, time)

    def _do_apply_probes(
        self, probed: dict[ObjectId, Point], time: float
    ) -> dict[ObjectId, Point]:
        previous_positions = {}
        for target, position in probed.items():
            state = self._objects[target]
            previous_positions[target] = state.p_lst
            if target in self._failed_probes:
                # No fresh fix: keep the stale report and its time (the
                # silence keeps growing) and widen the installed region
                # to the reachability circle — conservative, never a
                # stale point the object may have left.
                self._enter_degraded(target, time)
                continue
            if self._degraded and target in self._degraded:
                self._exit_degraded(target, time)
            state.p_lst = position
            self.positions.set(target, position)
            state.last_update_time = time
            self.object_index.update(target, Rect.from_point(position))
        return previous_positions

    def _apply_shrinks(
        self, shrunk: dict[ObjectId, Rect], probed: dict[ObjectId, Point]
    ) -> dict[ObjectId, Rect]:
        """Install reachability-tightened safe regions (Section 6.1).

        Objects that were eventually probed anyway are skipped — the probe
        supersedes the shrink.  Each installed shrink is pushed to the
        client over the downlink and counted in ``safe_region_pushes``.
        With ``reachability_pushes`` disabled (the paper's semantics),
        nothing is installed and constrained decisions may go stale.
        """
        if not self.config.reachability_pushes:
            return {}
        # Same per-reevaluation cadence as ``_apply_probes``: skip the
        # no-op span scaffolding when tracing is off.
        if self._trace.noop_spans():
            return self._do_apply_shrinks(shrunk, probed)
        with self._trace.span("shrink"):
            return self._do_apply_shrinks(shrunk, probed)

    def _do_apply_shrinks(
        self, shrunk: dict[ObjectId, Rect], probed: dict[ObjectId, Point]
    ) -> dict[ObjectId, Rect]:
        applied = {}
        for target, region in shrunk.items():
            if target in probed:
                continue
            state = self._objects[target]
            state.safe_region = region
            state.sr_stamp = None  # region no longer the full cell
            state.sr_cert = None  # nor the cell-certified region
            self.object_index.update(target, region)
            self.stats.safe_region_pushes += 1
            self._m_pushes.inc()
            if self.events.enabled:
                self.events.emit(
                    "shrink_push", cause=self._cause, oid=target,
                    region=(region.min_x, region.min_y,
                            region.max_x, region.max_y),
                    pos=(state.p_lst.x, state.p_lst.y),
                )
            applied[target] = region
        return applied

    def _advance_clock(self, oid: ObjectId, time: float) -> float:
        """Clamp ``time`` to the server's monotonic clock.

        A reordered channel can deliver an older report after a newer
        one; accepting its earlier timestamp would run the event log and
        the per-object ``last_update_time`` backwards (corrupting
        timeline ordering and the reachability silence computation), so
        the regression is counted, evented, and clamped.
        """
        if time < self._clock:
            self.stats.time_regressions += 1
            self._m_time_regressions.inc()
            if self.events.enabled:
                self.events.set_time(self._clock)
                self.events.emit(
                    "time_regression", oid=oid, got=time, clock=self._clock
                )
            return self._clock
        self._clock = time
        return time

    def _degraded_region(self, state: ObjectState, now: float) -> Rect:
        """The widest region the object can occupy while unreachable.

        The §6.1 reachability circle around the last report, grown at the
        maximum speed for the silence duration, clipped to the workspace;
        without any speed bound the whole workspace is the only
        conservative answer.
        """
        model = self._degraded_model
        if model is None:
            return self.config.space
        bbox = model.circle(
            state.p_lst, state.last_update_time, now
        ).bounding_rect()
        clipped = bbox.intersection(self.config.space)
        if clipped is None:  # p_lst outside the workspace: clock skew
            return Rect.from_point(self.config.space.clamp_point(state.p_lst))
        return clipped

    def _refresh_degraded(self, now: float) -> None:
        """Re-widen every degraded region to the current silence duration.

        The reachability circle grows while an object stays unreachable;
        a region frozen at degradation time would eventually stop
        containing the object and silently poison distance bounds.  Run
        at the top of every update/registration — one dict check when no
        object is degraded.
        """
        if not self._degraded:
            return
        for oid in self._degraded:
            state = self._objects[oid]
            region = self._degraded_region(state, now)
            if region != state.safe_region:
                state.safe_region = region
                self.object_index.update(oid, region)

    def _enter_degraded(self, oid: ObjectId, now: float) -> None:
        """Mark ``oid`` unreachable and install its widened region."""
        state = self._objects[oid]
        first = oid not in self._degraded
        if first:
            self._degraded[oid] = now
            self.stats.degraded_entries += 1
            self._g_degraded.set(len(self._degraded))
        region = self._degraded_region(state, now)
        state.safe_region = region
        state.sr_stamp = None
        state.sr_cert = None
        self.object_index.update(oid, region)
        if self.events.enabled:
            if first:
                self.events.emit(
                    "degraded_enter", cause=self._cause, oid=oid,
                    silent_since=state.last_update_time,
                )
            # ``degraded`` marks the install as a server-side widening
            # (no client push) for the diagnose containment exemption.
            self.events.emit(
                "safe_region", cause=self._cause, oid=oid,
                region=(region.min_x, region.min_y,
                        region.max_x, region.max_y),
                pos=(state.p_lst.x, state.p_lst.y),
                degraded=True,
            )

    def _exit_degraded(self, oid: ObjectId, now: float) -> None:
        """A fresh position arrived for a degraded object."""
        entered = self._degraded.pop(oid, None)
        if entered is None:
            return
        self._g_degraded.set(len(self._degraded))
        if self.events.enabled:
            self.events.emit(
                "degraded_exit", cause=self._cause, oid=oid,
                duration=now - entered,
            )

    def _install_safe_region(self, oid: ObjectId, region: Rect) -> None:
        state = self._objects[oid]
        state.safe_region = region
        self.object_index.update(oid, region)
        if self.events.enabled:
            self.events.emit(
                "safe_region", cause=self._cause, oid=oid,
                region=(region.min_x, region.min_y,
                        region.max_x, region.max_y),
                pos=(state.p_lst.x, state.p_lst.y),
            )

    def _objective(self, position: Point, previous: Point | None):
        return weighted_perimeter_objective(
            position, previous, self.config.steadiness
        )

    def _full_safe_region(
        self,
        oid: ObjectId,
        position: Point,
        previous: Point | None,
    ) -> Rect:
        """Recompute an object's safe region against all relevant queries.

        As a side effect, refreshes the object's lazy-recomputation stamp:
        set when the cell is query-free (the result is then certifiably
        the full cell rectangle), cleared otherwise.  Callers always
        install the returned region, keeping the stamp's certificate in
        step with the installed state.
        """
        profiler = self.profiler
        timed = profiler.enabled and profiler.tick_open
        if timed:
            start = perf_counter()
        try:
            if self._trace.noop_spans():
                return self._compute_full_safe_region(oid, position, previous)
            with self._trace.span("safe_region"):
                return self._compute_full_safe_region(oid, position, previous)
        finally:
            if timed:
                profiler.acc_sr += perf_counter() - start

    def _compute_full_safe_region(
        self,
        oid: ObjectId,
        position: Point,
        previous: Point | None,
    ) -> Rect:
        grid = self.query_index
        state = self._objects[oid]
        if position is state.p_lst:
            # The stored position's cell is resident in the store.
            cell_id = self.positions.cell_of(oid)
            if cell_id is None:
                cell_id = grid.cell_of(position)
        else:
            cell_id = grid.cell_of(position)
        cell = grid.cell_rect(cell_id)
        relevant = grid.relevant_queries(cell_id)
        if self._caches_on and not relevant:
            state.sr_stamp = (cell_id, grid.cell_generation(cell_id))
            state.sr_cert = None
        else:
            state.sr_stamp = None
        # A planned tick may carry this report's Section 5.3
        # staircase union, computed in the tick-wide corner dispatch;
        # ``compute_safe_region`` double-checks the obstacle count
        # before trusting it.
        plan = self._tick_plan
        batch_region = (
            plan.take_range_region(oid, position, cell_id)
            if plan is not None and plan.regions
            else None
        )
        region = compute_safe_region(
            oid,
            position,
            relevant,
            cell,
            self.object_index.rect_of,
            self._objective(position, previous),
            use_batch=self.config.batch_range_regions,
            kernels=self.kernels,
            batch_region=batch_region,
        )
        if state.sr_stamp is None:
            # The delta certificate is a policy, not a cache: it applies
            # in cached and uncached runs alike (cache transparency —
            # both runs must take identical decisions).  Each kNN entry
            # records the *clearance* — the region's minimum distance to
            # the quarantine centre — so the certificate survives radius
            # growth up to the region's slack, not just shrinks.  An
            # insider (region inside the quarantine circle) has
            # clearance below the radius and is rejected by the same
            # comparison that guards against growth.
            cert = None
            radii = []
            for q in relevant:
                tq = type(q)
                if tq is RangeQuery:
                    continue  # immutable quarantine rect
                if tq is KNNQuery:
                    d = region.min_dist_to_point(q.center)
                    if (
                        d <= 0.0
                        or q.radius > d
                        or q.quarantine_contains(position)
                    ):
                        # Quarantine holding the object or the region
                        # (rank changes escape the clearance check), or
                        # a degenerate zero-clearance region: no
                        # certificate.
                        break
                    radii.append((q, d))
                    continue
                break  # custom query type: no certificate
            else:
                cert = (
                    cell_id, grid.cell_generation(cell_id), tuple(radii)
                )
            state.sr_cert = cert
        return region


def _snapshot(query: Query):
    return query.result_snapshot()


def _event_snapshot(snapshot):
    """A result snapshot as a JSON-serialisable, deterministic value."""
    if isinstance(snapshot, (frozenset, set)):
        try:
            return sorted(snapshot)
        except TypeError:
            return sorted(snapshot, key=repr)
    if isinstance(snapshot, tuple):
        return list(snapshot)
    return snapshot
