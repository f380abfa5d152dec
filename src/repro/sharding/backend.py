"""One shard's server plus the operation surface the coordinator drives.

A shard is a complete :class:`~repro.core.server.DatabaseServer` over
the *full* workspace geometry (same ``grid_m``, same space) that happens
to hold only the objects homed to its cells and copies of the queries
whose quarantine areas overlap its territory.  Safe regions are clipped
to one grid cell and cells are atomically owned, so the shard has every
fact it needs to maintain its local results — "dumb shards, smart
router" (docs/SHARDING.md).

:class:`ShardBackend` implements the op vocabulary once; the in-process
mode calls it directly and the ``multiprocessing`` worker
(:mod:`repro.sharding.worker`) hosts one behind a pipe.  Keeping a
single implementation is what makes the two modes behave identically
per shard.
"""

from __future__ import annotations

import time as _time
from typing import Hashable

from repro.core.queries import KNNQuery, Query, RangeQuery
from repro.core.server import DatabaseServer, ServerConfig
from repro.geometry.point import Point
from repro.geometry.rect import Rect

ObjectId = Hashable


def query_spec(query: Query) -> dict:
    """A picklable description of ``query`` for cross-process registration.

    Only the built-in query types ship across shard boundaries; an
    extension query would need its own spec round-trip.
    """
    if isinstance(query, RangeQuery):
        return {
            "type": "range",
            "query_id": query.query_id,
            "rect": (
                query.rect.min_x, query.rect.min_y,
                query.rect.max_x, query.rect.max_y,
            ),
        }
    if isinstance(query, KNNQuery):
        return {
            "type": "knn",
            "query_id": query.query_id,
            "center": (query.center.x, query.center.y),
            "k": query.k,
            "order_sensitive": query.order_sensitive,
        }
    raise TypeError(
        f"sharded mode cannot route query type {type(query).__name__}"
    )


def query_from_spec(spec: dict) -> Query:
    """A fresh (empty-result) query built from :func:`query_spec` output."""
    if spec["type"] == "range":
        return RangeQuery(Rect(*spec["rect"]), query_id=spec["query_id"])
    if spec["type"] == "knn":
        cx, cy = spec["center"]
        return KNNQuery(
            Point(cx, cy), spec["k"],
            order_sensitive=spec["order_sensitive"],
            query_id=spec["query_id"],
        )
    raise TypeError(f"unknown query spec type {spec['type']!r}")


class ShardBackend:
    """The per-shard op surface (see module docstring)."""

    def __init__(
        self,
        shard_id: int,
        config: ServerConfig,
        probe,
        metrics=None,
        events=None,
    ) -> None:
        self.shard_id = shard_id
        self.registry = metrics
        self.server = DatabaseServer(
            probe, config, metrics=metrics, events=events
        )
        self._queries: dict[str, Query] = {}
        #: CPU seconds spent inside ops (``time.process_time``) — the
        #: shard's share of the critical path in the scaling model.
        #: Process CPU time is immune to timesharing with sibling
        #: workers and accrues ~nothing while blocked on a probe round
        #: trip, so no pipe-wait correction is needed.
        self.busy_seconds = 0.0

    # -- op surface ----------------------------------------------------
    def load(
        self, pairs: list[tuple[ObjectId, tuple[float, float]]], time: float
    ) -> dict:
        start = _time.process_time()
        regions = self.server.load_objects(
            [(oid, Point(x, y)) for oid, (x, y) in pairs], time
        )
        self.busy_seconds += _time.process_time() - start
        return {"regions": regions}

    def register(self, spec: dict, time: float) -> dict:
        start = _time.process_time()
        query = query_from_spec(spec)
        outcome = self.server.register_query(query, time)
        self._queries[query.query_id] = query
        # Evaluation probes can flip *other* local queries (a probe may
        # catch an object outside its safe region); their partials must
        # reach the coordinator too, or the merged views go stale.
        touched = set(outcome.probed) | set(outcome.missed)
        partials = self._affected_partials(touched, [outcome])
        partial = partials.pop(query.query_id, None)
        if partial is None:
            partial = self._partial(query)
        self.busy_seconds += _time.process_time() - start
        return {"outcome": outcome, "partial": partial, "partials": partials}

    def deregister(self, query_id: str) -> None:
        query = self._queries.pop(query_id, None)
        if query is not None:
            self.server.deregister_query(query)

    def batch(self, ops: list[tuple], time: float) -> dict:
        """Run a sequence of update/add/evict ops, in the given order.

        Returns per-op outcomes (in order), the refreshed partials of
        every query the ops may have touched, and the compute seconds
        the batch cost this shard.

        A stream carrying two or more location updates is pre-planned
        through the server's tick planner (``DatabaseServer.planned_tick``
        — a single update never plans): their predictable kernel work is
        gathered and dispatched in one columnar pass up front, and each
        per-op call consumes its verdicts where still valid.  Plan
        entries validate on ``Point`` identity, so each op's point is
        built once and shared by the plan and the call.  The coordinator
        needs per-op outcomes, so the ops themselves still run one by
        one — results are bit-identical either way (the
        shard-equivalence pin in ``benchmarks/test_shards_bench.py``
        holds the proof).
        """
        start = _time.process_time()
        outcomes = []
        touched: set[ObjectId] = set()
        points = [Point(*op[2]) if len(op) > 2 else None for op in ops]
        updates = [
            (op[1], point)
            for op, point in zip(ops, points) if op[0] == "update"
        ]
        # One profiled tick per batch op: the plan's gather/dispatch and
        # every per-op phase nest under it (per-op auto-roots defer to
        # the open tick).
        profiler = self.server.profiler
        owns_tick = profiler.enabled and profiler.tick_begin()
        try:
            with self.server.planned_tick(updates, time):
                for op, point in zip(ops, points):
                    kind, oid = op[0], op[1]
                    if kind == "update":
                        outcome = self.server.handle_location_update(
                            oid, point, time
                        )
                    elif kind == "add":
                        outcome = self.server.add_object(oid, point, time)
                    elif kind == "evict":
                        outcome = self.server.evict_object(oid, time)
                    else:
                        raise ValueError(f"unknown shard op {kind!r}")
                    outcomes.append(outcome)
                    touched.add(oid)
                    touched.update(outcome.probed)
                    touched.update(outcome.missed)
        finally:
            if owns_tick:
                # Updates and adds are both location reports (a migrated
                # report arrives as evict-on-old + add-on-new), so the
                # profiled report count reconciles with the
                # coordinator's ``location_updates`` sum.
                profiler.tick_end(
                    sum(1 for op in ops if op[0] in ("update", "add"))
                )
        partials = self._affected_partials(touched, outcomes)
        self.busy_seconds += _time.process_time() - start
        return {
            "outcomes": outcomes,
            "partials": partials,
            "busy": self.busy_seconds,
        }

    def residents(self, cells: list[tuple]) -> dict:
        """``(oid, x, y)`` rows of the objects resident in ``cells``.

        The migration work-list of an elastic topology change: the
        coordinator asks the old owner which of its objects sit in the
        moved cells, then replays them as evict+add pairs.  Reads the
        position store's cell residency — one dict probe per cell, no
        scan — and returns rows in (cell, object id) order so the
        migration op stream is deterministic.
        """
        store = self.server.positions
        rows: list[tuple] = []
        for cell in cells:
            cell = tuple(cell)
            for oid in sorted(store.cell_ids(cell), key=repr):
                x, y = store.get(oid)
                rows.append((oid, x, y))
        return {"rows": rows}

    def query_partials(self, query_ids: list[str]) -> dict:
        return {
            qid: self._partial(self._queries[qid])
            for qid in query_ids
            if qid in self._queries
        }

    def stats(self):
        return self.server.stats

    def metrics_snapshot(self) -> dict | None:
        if self.registry is None:
            return None
        return self.registry.to_dict()

    def info(self) -> dict:
        return {
            "objects": self.server.object_count,
            "queries": self.server.query_count,
            "clock": self.server.clock,
            "busy": self.busy_seconds,
            "oids": sorted(self.server._objects, key=repr),
            "degraded": self.server.degraded_objects(),
        }

    def safe_region(self, oid: ObjectId) -> Rect:
        return self.server.safe_region_of(oid)

    def snapshot(self) -> dict:
        from repro.core.snapshot import snapshot_server

        return snapshot_server(self.server)

    def restore(self, payload: dict, probe) -> None:
        from repro.core.snapshot import restore_server

        self.server = restore_server(payload, probe)
        self._queries = {q.query_id: q for q in self.server.queries()}

    def validate(self) -> None:
        self.server.validate()

    def refresh_index_gauges(self) -> None:
        self.server.refresh_index_gauges()

    def profile_start(self, max_ticks: int | None = None) -> None:
        """Attach a fresh tick-phase profiler to this shard's server.

        Reached through the generic op dispatch, so the pipe protocol
        needs no new message kinds — ``profile_start`` / a later
        ``profile_snapshot`` are ordinary ops.
        """
        from repro.obs import TickProfiler

        self.server.attach_profiler(TickProfiler(max_ticks=max_ticks))

    def profile_stop(self) -> None:
        """Detach the profiler (the shared no-op goes back in)."""
        from repro.obs import NULL_PROFILER

        self.server.attach_profiler(NULL_PROFILER)

    def profile_snapshot(self, top_k: int = 10) -> dict:
        """This shard's picklable phase/hotspot summary."""
        return self.server.profile_snapshot(top_k)

    # -- partial extraction --------------------------------------------
    def _affected_partials(self, touched: set[ObjectId], outcomes) -> dict:
        """Partials of every query the ops may have changed.

        Membership scans — not the reevaluation log alone — because an
        order-insensitive kNN member moving *within* the quarantine
        circle changes no result yet moves the row position the
        cross-shard merge ranks by.
        """
        affected: set[str] = set()
        for outcome in outcomes:
            for change in outcome.changes:
                affected.add(change.query_id)
        for query in self._queries.values():
            if not touched.isdisjoint(query.results):
                affected.add(query.query_id)
        return self.query_partials(sorted(affected))

    def _partial(self, query: Query) -> dict:
        """This shard's contribution to the query's merged result."""
        server = self.server
        degraded = sorted(
            (oid for oid in query.results if server.is_degraded(oid)),
            key=repr,
        )
        if isinstance(query, KNNQuery):
            rows = []
            for oid in query.results:
                x, y = server.positions.get(oid)
                region = server.safe_region_of(oid)
                # ``max_dist`` is the merge's conservative ranking bound;
                # ``min_dist`` tells the coordinator which candidates a
                # refresh probe could still move into or out of the true
                # top-k (docs/SHARDING.md "Refresh probes").
                rows.append((
                    oid, x, y,
                    region.max_dist_to_point(query.center),
                    region.min_dist_to_point(query.center),
                ))
            return {
                "kind": "knn",
                "rows": rows,
                "radius": query.radius,
                "degraded": degraded,
            }
        return {
            "kind": "range",
            "results": sorted(query.results, key=repr),
            "degraded": degraded,
        }
