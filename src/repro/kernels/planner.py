"""Tick-wide kernel work planner: gather -> dispatch -> scatter.

Per-update kernel calls starve the batch backends: a single report sees
a handful of candidate queries and a handful of safe-region obstacles,
so almost every call lands under ``Kernels.min_rows`` and runs the
scalar fallback (``kernels.fallback_rows``).  The planner fixes the
shape of the work instead of the cutoff: before a batch of same-tick
reports is processed, the server *gathers* every predictable work item
across the whole tick, then *dispatches* each work class as one large
kernel call, and *scatters* the verdicts into a :class:`TickPlan` keyed
by object id.

The gather itself is columnar (docs/PERFORMANCE.md "Resident columns
and delta reevaluation"): candidate rect/centre columns are derived
once per ``(cell pair, generations)`` and cached, safe-region obstacle
columns once per ``(cell, generation)``, so adding a report extends
shared columns with C-level ``array.extend`` instead of appending one
row per (report x query).  Per-report state — the new/old point pair,
the mutable kNN radii — is gathered fresh each tick as *segment*
columns; the segmented kernels (``affected_deltas``, ``knn_gate_rows``,
``quadrant_corners_grouped``) broadcast each report's points over its
candidate run with exact-copy ``np.repeat``.

The per-report code paths then *consume* the plan instead of
recomputing: each entry is validated against the live state it was
planned from (``Point`` identity of the new/old positions, cell
generations, per-row kNN radii, obstacle counts) and silently ignored
on any mismatch — a probe or quarantine move between planning and
consumption simply sends that report down the unplanned path, which
computes the identical result inline.  Both paths run the same kernel
arithmetic and the same scalar combination code, so planned and
unplanned executions are bit-identical by construction and the
200-tick replay equivalence pins hold with the planner on or off.

Counters (all under ``kernels.planner.*``, visible in ``repro stats``):

* ``plans``           — batches planned;
* ``rows_gathered``   — column rows accumulated across all work classes;
* ``dispatches``      — kernel dispatches issued by ``finish()``;
* ``scatter_seconds`` — wall time spent scattering verdicts back out
  (only measured when a metrics registry is attached).

Plus ``kernels.delta.skipped_rows`` — planned candidate rows whose
delta came back empty (range membership unchanged, kNN quarantine gate
not crossed): work the delta-driven consumer never revisits.
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import Hashable

from repro.kernels.ops import _QUADRANT_SIGNS
from repro.kernels.store import ColumnBuffer
from repro.obs import NULL_PROFILER, NULL_REGISTRY

ObjectId = Hashable

#: Lazily resolved ``(RangeQuery, KNNQuery)`` — ``repro.core`` imports
#: this module at class-definition time, so a module-level import of
#: ``repro.core.queries`` would be circular.
_QUERY_TYPES: tuple | None = None


def _query_types() -> tuple:
    global _QUERY_TYPES
    if _QUERY_TYPES is None:
        from repro.core.queries import KNNQuery, RangeQuery

        _QUERY_TYPES = (RangeQuery, KNNQuery)
    return _QUERY_TYPES


class ObstacleColumns:
    """One cell's Section 5.3 obstacle-candidate rects as columns.

    Derived from the cell's relevant queries with exactly the
    eligibility filter of ``collect_range_obstacles`` *minus* the
    position-dependent containment test (that moves in-kernel): plain
    range queries, or range subclasses without a ``safe_region_for``
    extension hook.  Cached per ``(cell, generation)`` by the planner.
    """

    __slots__ = ("n", "minxs", "minys", "maxxs", "maxys")

    def __init__(self, rects) -> None:
        self.minxs = array("d")
        self.minys = array("d")
        self.maxxs = array("d")
        self.maxys = array("d")
        for rect in rects:
            self.minxs.append(rect.min_x)
            self.minys.append(rect.min_y)
            self.maxxs.append(rect.max_x)
            self.maxys.append(rect.max_y)
        self.n = len(self.minxs)


class TickPlan:
    """Scattered verdicts of one planned tick, consumed entry by entry.

    Entries are handed out at most once (``take_*`` pops) and only when
    the caller's live arguments still match what was planned; ``None``
    means "not planned / stale — compute inline".
    """

    __slots__ = ("affected", "regions")

    def __init__(self) -> None:
        #: oid -> (pos, prev, ordered candidates, cells, generations,
        #:         hits, kverdicts) — ``hits`` the affected plain range
        #: queries as ``(query, inside_new)`` in candidate order,
        #: ``kverdicts`` every plain kNN candidate as ``(query, hit,
        #: (in_new, in_old), planned_radius)`` in candidate order.
        self.affected: dict = {}
        #: oid -> (pos, cell_id, n_obstacles, region)
        self.regions: dict = {}

    def take_affected(self, oid: ObjectId, position, previous, grid):
        """Planned candidate set + delta verdicts for one report.

        Returns ``(ordered_candidates, hits, kverdicts)`` or ``None``.
        Valid only while the report's position objects are the ones
        planned from (identity, not equality — an interleaved probe
        rewrites ``p_lst`` to a *different* object) and both involved
        cells still carry their planned generations (a quarantine move
        between planning and consumption changes the candidate set).
        Per-row kNN radii are validated by the consumer — a radius can
        change mid-tick without a generation bump.
        """
        entry = self.affected.pop(oid, None)
        if entry is None:
            return None
        pos, prev, ordered, cells, gens, hits, kverdicts = entry
        if position is not pos or previous is not prev:
            return None
        for cell, gen in zip(cells, gens):
            if grid.cell_generation(cell) != gen:
                return None
        return ordered, hits, kverdicts

    def take_range_region(self, oid: ObjectId, position, cell_id):
        """Planned Section 5.3 staircase union for one report.

        Returns ``(n_obstacles, region)`` or ``None``; the caller
        (``compute_safe_region``) only uses the region when its own
        obstacle collection matches ``n_obstacles``.
        """
        entry = self.regions.pop(oid, None)
        if entry is None:
            return None
        pos, planned_cell, n_obstacles, region = entry
        if position is not pos or cell_id != planned_cell:
            return None
        return n_obstacles, region


class TickPlanner:
    """Accumulates one tick's kernel work and dispatches it in bulk."""

    __slots__ = (
        "kernels", "_metrics_on", "profiler",
        "_m_plans", "_m_rows", "_m_dispatches", "_m_scatter", "_m_skipped",
        "_aff_buf", "_knn_buf", "_pts", "_seg_rlens", "_seg_klens",
        "_aff_segments",
        "_reg_buf", "_reg_pts", "_reg_w", "_reg_h", "_reg_lens",
        "_reg_segments",
        "_cand_cols", "_obst_cols",
    )

    def __init__(self, kernels, metrics=None) -> None:
        self.kernels = kernels
        registry = NULL_REGISTRY if metrics is None else metrics
        self._metrics_on = registry.enabled
        #: Tick-phase profiler, shared with the owning server
        #: (``DatabaseServer.attach_profiler``); the no-op by default.
        self.profiler = NULL_PROFILER
        self._m_plans = registry.counter("kernels.planner.plans")
        self._m_rows = registry.counter("kernels.planner.rows_gathered")
        self._m_dispatches = registry.counter("kernels.planner.dispatches")
        self._m_scatter = registry.counter("kernels.planner.scatter_seconds")
        self._m_skipped = registry.counter("kernels.delta.skipped_rows")
        # Range-affected rect rows: one per (report, candidate range
        # query), extended from cached candidate columns.
        self._aff_buf = ColumnBuffer(4)
        # kNN circle rows: centre x/y from cached candidate columns,
        # radius gathered fresh (mutable mid-tick).
        self._knn_buf = ColumnBuffer(3)
        # Per-report point segments: new x/y, old x/y — one row per
        # ``add_affected`` call, shared by both delta dispatches.
        self._pts = ColumnBuffer(4)
        self._seg_rlens: list = []
        self._seg_klens: list = []
        self._aff_segments: list = []
        # Obstacle rect rows: one per (report, candidate obstacle).
        self._reg_buf = ColumnBuffer(4)
        self._reg_pts = ColumnBuffer(2)
        # Quadrant extents: per-quadrant width/height columns, one
        # entry per report (``quad_widths[q][k]``).
        self._reg_w = tuple(array("d") for _ in range(4))
        self._reg_h = tuple(array("d") for _ in range(4))
        self._reg_lens: list = []
        self._reg_segments: list = []
        #: cells tuple -> (generations, rq, rminx, rminy, rmaxx, rmaxy,
        #:                 knn, kcx, kcy)
        self._cand_cols: dict = {}
        #: cell -> (generation, ObstacleColumns | None)
        self._obst_cols: dict = {}

    def begin(self) -> None:
        """Reset the gather buffers for a new tick (caches persist)."""
        self._aff_buf.clear()
        self._knn_buf.clear()
        self._pts.clear()
        self._seg_rlens.clear()
        self._seg_klens.clear()
        self._aff_segments.clear()
        self._reg_buf.clear()
        self._reg_pts.clear()
        for col in self._reg_w:
            del col[:]
        for col in self._reg_h:
            del col[:]
        self._reg_lens.clear()
        self._reg_segments.clear()

    def _build_cand_cols(self, ordered, cells, generations):
        """Derive (and cache) the candidate columns of one cell pair.

        The candidate tuple is a pure function of ``(cells,
        generations)`` — the grid's ordered-candidate views are cached
        per generation — so the derived columns can be reused until
        either cell's generation moves.  kNN centres are immutable
        (only set at construction); radii are *not* cached here.
        """
        range_t, knn_t = _query_types()
        rq = []
        knn = []
        rminx = array("d")
        rminy = array("d")
        rmaxx = array("d")
        rmaxy = array("d")
        kcx = array("d")
        kcy = array("d")
        for q in ordered:
            tq = type(q)
            if tq is range_t:
                rq.append(q)
                rect = q.rect
                rminx.append(rect.min_x)
                rminy.append(rect.min_y)
                rmaxx.append(rect.max_x)
                rmaxy.append(rect.max_y)
            elif tq is knn_t:
                knn.append(q)
                kcx.append(q.center.x)
                kcy.append(q.center.y)
        entry = (
            generations, tuple(rq), rminx, rminy, rmaxx, rmaxy,
            tuple(knn), kcx, kcy,
        )
        self._cand_cols[cells] = entry
        return entry

    def add_affected(
        self, oid: ObjectId, position, previous,
        ordered_candidates: tuple, cells: tuple, generations: tuple,
    ) -> None:
        """Gather one report's delta work (range flips + kNN gates).

        ``ordered_candidates`` is the full ``query_id``-sorted candidate
        tuple (all query types — stored so consumption skips the grid
        lookup); its plain range and plain kNN members go through the
        segmented kernels, everything else stays scalar at consume.
        """
        entry = self._cand_cols.get(cells)
        if entry is None or entry[0] != generations:
            entry = self._build_cand_cols(
                ordered_candidates, cells, generations
            )
        _, rq, rminx, rminy, rmaxx, rmaxy, knn, kcx, kcy = entry
        c0, c1, c2, c3 = self._aff_buf.columns()
        c0.extend(rminx)
        c1.extend(rminy)
        c2.extend(rmaxx)
        c3.extend(rmaxy)
        k0, k1, k2 = self._knn_buf.columns()
        k0.extend(kcx)
        k1.extend(kcy)
        for q in knn:
            k2.append(q.radius)
        self._pts.append(position.x, position.y, previous.x, previous.y)
        self._seg_rlens.append(len(rq))
        self._seg_klens.append(len(knn))
        self._aff_segments.append((
            oid, position, previous, ordered_candidates, rq, knn,
            cells, generations,
        ))

    def obstacle_columns(self, cell, generation: int, relevant_queries):
        """The cell's cached obstacle-candidate columns, or ``None``.

        ``None`` when the cell has no eligible obstacle rects at all —
        the report then has no Section 5.3 batch work to plan (the
        containment exclusion of the *eligible* rects happens in-kernel
        at dispatch, per report position).
        """
        entry = self._obst_cols.get(cell)
        if entry is not None and entry[0] == generation:
            return entry[1]
        range_t, _ = _query_types()
        rects = []
        for q in relevant_queries:
            tq = type(q)
            if tq is range_t or (
                not hasattr(q, "safe_region_for") and isinstance(q, range_t)
            ):
                rects.append(q.rect)
        cols = ObstacleColumns(rects) if rects else None
        self._obst_cols[cell] = (generation, cols)
        return cols

    def add_region(
        self, oid: ObjectId, position, cell_id, cell,
        extents: list, cols: ObstacleColumns,
    ) -> None:
        """Gather one report's Section 5.3 corner-candidate work.

        ``extents`` are the four quadrant ``(width, height)`` pairs from
        ``repro.core.batch.quadrant_extents``; ``cols`` the cell's
        resident obstacle-candidate columns (:meth:`obstacle_columns`).
        """
        c0, c1, c2, c3 = self._reg_buf.columns()
        c0.extend(cols.minxs)
        c1.extend(cols.minys)
        c2.extend(cols.maxxs)
        c3.extend(cols.maxys)
        self._reg_pts.append(position.x, position.y)
        for q, (width, height) in enumerate(extents):
            self._reg_w[q].append(width)
            self._reg_h[q].append(height)
        self._reg_lens.append(cols.n)
        self._reg_segments.append(
            (oid, position, cell_id, cell, cols.n, extents)
        )

    def finish(self) -> TickPlan:
        """Dispatch every gathered work class and scatter the verdicts."""
        # The staircase/greedy combination is shared with the unplanned
        # path — imported from core lazily to keep repro.kernels
        # importable without repro.core.
        from repro.core.batch import (
            _QUADRANTS,
            combine_components,
            staircase_corners,
        )

        assert _QUADRANTS == _QUADRANT_SIGNS

        plan = TickPlan()
        n_aff = len(self._aff_buf)
        n_knn = len(self._knn_buf)
        n_reg = len(self._reg_buf)
        rows = n_aff + n_knn + n_reg
        self._m_plans.inc()
        if rows:
            self._m_rows.inc(rows)

        profiler = self.profiler
        profile_on = profiler.enabled
        skipped = 0
        if self._aff_segments:
            if profile_on:
                profiler.push("kernel.dispatch")
            nxs, nys, oxs, oys = self._pts.columns()
            affected = inside = in_new = in_old = on_old = ()
            if n_aff:
                affected, inside = self.kernels.affected_deltas(
                    *self._aff_buf.columns(),
                    self._seg_rlens, nxs, nys, oxs, oys,
                )
                self._m_dispatches.inc()
            if n_knn:
                in_new, in_old, on_old = self.kernels.knn_gate_rows(
                    *self._knn_buf.columns(),
                    self._seg_klens, nxs, nys, oxs, oys,
                )
                self._m_dispatches.inc()
            if profile_on:
                profiler.pop()
                profiler.push("report.scatter")
            rads = self._knn_buf.columns()[2]
            t0 = perf_counter() if self._metrics_on else 0.0
            ro = 0
            ko = 0
            for (
                oid, pos, prev, ordered, rq, knn, cells, gens
            ) in self._aff_segments:
                hits = []
                for q in rq:
                    if affected[ro]:
                        hits.append((q, inside[ro]))
                    else:
                        skipped += 1
                    ro += 1
                kverdicts = []
                for q in knn:
                    gate_new = in_new[ko]
                    gate_old = in_old[ko]
                    # ``is_affected_by`` from the gates: a start on the
                    # circle always counts, then order-sensitive queries
                    # react to any quarantine touch, unordered ones only
                    # to a membership flip.
                    if on_old[ko]:
                        hit = True
                    elif q.order_sensitive:
                        hit = gate_new or gate_old
                    else:
                        hit = gate_new != gate_old
                    if not hit:
                        skipped += 1
                    kverdicts.append(
                        (q, hit, (gate_new, gate_old), rads[ko])
                    )
                    ko += 1
                plan.affected[oid] = (
                    pos, prev, ordered, cells, gens, hits, kverdicts
                )
            if self._metrics_on:
                self._m_scatter.inc(perf_counter() - t0)
            if profile_on:
                profiler.pop()

        if self._reg_segments:
            if profile_on:
                profiler.push("kernel.dispatch")
            contained, keep, cxs, cys = self.kernels.quadrant_corners_grouped(
                *self._reg_pts.columns(), self._reg_w, self._reg_h,
                self._reg_lens, *self._reg_buf.columns(),
            )
            self._m_dispatches.inc()
            if profile_on:
                profiler.pop()
                profiler.push("report.scatter")
            t0 = perf_counter() if self._metrics_on else 0.0
            off = 0
            for oid, pos, cell_id, cell, n, extents in self._reg_segments:
                seg_contained = contained[off:off + n]
                n_obstacles = n - sum(seg_contained)
                if n_obstacles:
                    component_sets = []
                    for q, (width, height) in enumerate(extents):
                        base = q * n_reg + off
                        blockers = []
                        for i in range(n):
                            if not seg_contained[i] and keep[base + i]:
                                blockers.append(
                                    (cxs[base + i], cys[base + i])
                                )
                        component_sets.append(
                            staircase_corners(blockers, width, height)
                        )
                    region = combine_components(pos, cell, component_sets)
                    plan.regions[oid] = (pos, cell_id, n_obstacles, region)
                off += n
            if self._metrics_on:
                self._m_scatter.inc(perf_counter() - t0)
            if profile_on:
                profiler.pop()

        if skipped:
            self._m_skipped.inc(skipped)
        self.begin()
        return plan
