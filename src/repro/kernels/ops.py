"""Columnar geometry kernels for the evaluation hot path.

Every kernel exists twice: a NumPy batch implementation and a pure-Python
scalar fallback.  The two are **bit-identical by construction** — the
NumPy path performs the same floating-point operations in the same order
per element as the scalar path (``dx*dx + dy*dy``, explicit ``min``/
``max`` compositions, sequential ``cumsum`` row sums instead of pairwise
reductions, and never ``hypot``, whose result CPython and NumPy are free
to compute differently).  This lets the server swap backends via
``ServerConfig.kernel_backend`` without perturbing a single result,
message, or counter; ``tests/test_kernels_properties.py`` cross-checks
the two paths on random columns including rect-edge and distance-tie
inputs, and ``tests/test_kernel_equivalence.py`` replays full monitoring
streams under both backends.

FP-determinism rules for new kernels (see docs/PERFORMANCE.md):

* square with ``v * v``, never ``v ** 2`` or ``np.square`` mixed with
  scalar ``pow``;
* sum sequentially (``np.cumsum(...)[..., -1]``) when the scalar path
  sums left to right — ``np.sum`` uses pairwise reduction;
* replicate Python's ``min``/``max`` tie behaviour (first argument wins
  on equality) — ``np.minimum``/``np.maximum`` match it, but
  ``max(v, 0.0)`` must become ``np.where(v >= 0.0, v, 0.0)`` to keep
  the sign of a negative zero;
* match truncation: ``int(f)`` truncates toward zero, as does
  ``ndarray.astype(int64)`` for the values a grid ever sees;
* convert every NumPy output back to Python scalars (``tolist()``) so
  downstream geometry never mixes ``np.float64`` into snapshots.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

from repro.geometry.circle import BOUNDARY_REL_TOL
from repro.obs import NULL_EVENT_LOG, NULL_REGISTRY

try:  # pragma: no cover — exercised implicitly by backend resolution
    import numpy as _np

    HAS_NUMPY = True
except ImportError:  # pragma: no cover — container always ships numpy
    _np = None
    HAS_NUMPY = False

#: Recognised values of ``ServerConfig.kernel_backend``.
KERNEL_BACKENDS = ("numpy", "python")

#: Quadrant sign pairs of the Section 5.3 staircase batch, kept in
#: lockstep with ``repro.core.batch._QUADRANTS`` (asserted by the tick
#: planner).  ``quadrant_corners_grouped`` iterates these as constants,
#: so no per-row sign column is gathered.
_QUADRANT_SIGNS = ((1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0))


def resolve_backend(requested: str) -> str:
    """Map a requested backend to the one that will actually run.

    ``"numpy"`` silently degrades to ``"python"`` when NumPy is absent —
    the fallback is bit-identical, so nothing but speed changes.
    """
    if requested not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {requested!r}; choose from {KERNEL_BACKENDS}"
        )
    if requested == "numpy" and not HAS_NUMPY:
        return "python"
    return requested


class Kernels:
    """Batch geometry kernels with a selected backend.

    ``min_rows`` is the batch-size cutoff below which the NumPy path is
    not worth its constant overhead; smaller inputs run the scalar
    fallback (identical results either way).  Counters:

    * ``kernels.batch_calls``    — invocations served by the NumPy path;
    * ``kernels.rows_scanned``   — rows processed by the NumPy path;
    * ``kernels.fallback_calls`` — invocations served by the scalar path
      (explicit ``python`` backend, missing NumPy, or below-cutoff);
    * ``kernels.fallback_rows``  — rows processed by the scalar path.
      The ratio ``fallback_rows / (rows_scanned + fallback_rows)`` is the
      number that matters for batching health: many tiny fallback calls
      can be negligible by rows, and one huge fallback call can dominate.
    """

    __slots__ = (
        "backend", "min_rows", "_np", "_events",
        "_batch_calls", "_rows_scanned", "_fallback_calls",
        "_fallback_rows",
    )

    def __init__(
        self, backend: str = "numpy", metrics=None, min_rows: int = 8,
        events=None,
    ) -> None:
        if min_rows < 1:
            raise ValueError("min_rows must be positive")
        self.backend = resolve_backend(backend)
        self.min_rows = min_rows
        self._np = _np if self.backend == "numpy" else None
        registry = NULL_REGISTRY if metrics is None else metrics
        self._events = NULL_EVENT_LOG if events is None else events
        self._batch_calls = registry.counter("kernels.batch_calls")
        self._rows_scanned = registry.counter("kernels.rows_scanned")
        self._fallback_calls = registry.counter("kernels.fallback_calls")
        self._fallback_rows = registry.counter("kernels.fallback_rows")

    def _batch(self, n: int) -> bool:
        """Whether to take the NumPy path for an ``n``-row call.

        The cutoff is inclusive: a call with exactly ``min_rows`` rows
        takes the vectorized path (``n >= self.min_rows``), on both
        backends — pinned by ``test_min_rows_exact_cutoff_vectorises``.
        """
        if self._np is not None and n >= self.min_rows:
            self._batch_calls.inc()
            self._rows_scanned.inc(n)
            return True
        self._fallback_calls.inc()
        self._fallback_rows.inc(n)
        if self._events.enabled:
            self._events.emit(
                "kernel_fallback", rows=n, backend=self.backend,
                reason="below_cutoff" if self._np is not None else "no_numpy",
            )
        return False

    # ------------------------------------------------------------------
    # Point kernels
    # ------------------------------------------------------------------
    def points_in_rect(
        self, xs: Sequence[float], ys: Sequence[float], rect
    ) -> list[bool]:
        """Per-row mask: is ``(xs[i], ys[i])`` inside the closed ``rect``."""
        n = len(xs)
        if self._batch(n):
            np = self._np
            x = np.asarray(xs, dtype=np.float64)
            y = np.asarray(ys, dtype=np.float64)
            mask = (
                (x >= rect.min_x) & (x <= rect.max_x)
                & (y >= rect.min_y) & (y <= rect.max_y)
            )
            return mask.tolist()
        return [
            rect.min_x <= xs[i] <= rect.max_x
            and rect.min_y <= ys[i] <= rect.max_y
            for i in range(n)
        ]

    def squared_dists(
        self, xs: Sequence[float], ys: Sequence[float], qx: float, qy: float
    ) -> list[float]:
        """Per-row squared distance to ``(qx, qy)`` as ``dx*dx + dy*dy``."""
        n = len(xs)
        if self._batch(n):
            np = self._np
            dx = np.asarray(xs, dtype=np.float64) - qx
            dy = np.asarray(ys, dtype=np.float64) - qy
            return (dx * dx + dy * dy).tolist()
        out = []
        for i in range(n):
            dx = xs[i] - qx
            dy = ys[i] - qy
            out.append(dx * dx + dy * dy)
        return out

    def top_k_rows(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        qx: float,
        qy: float,
        k: int,
    ) -> list[int]:
        """Rows of the ``k`` nearest points, ordered by ``(d2, row)``.

        The row index breaks exact distance ties, so the selection is
        fully deterministic — unlike a bare ``argpartition``, whose
        boundary ties depend on the partitioning order.
        """
        n = len(xs)
        if k <= 0 or n == 0:
            return []
        k = min(k, n)
        if self._batch(n):
            np = self._np
            dx = np.asarray(xs, dtype=np.float64) - qx
            dy = np.asarray(ys, dtype=np.float64) - qy
            d2 = dx * dx + dy * dy
            if k < n:
                part = np.argpartition(d2, k - 1)
                threshold = d2[part[k - 1]]
                cand = np.flatnonzero(d2 <= threshold)
            else:
                cand = np.arange(n)
            order = cand[np.lexsort((cand, d2[cand]))]
            return order[:k].tolist()
        d2 = self.squared_dists(xs, ys, qx, qy)
        return heapq.nsmallest(k, range(n), key=lambda i: (d2[i], i))

    def cells_of(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        min_x: float,
        min_y: float,
        cell_w: float,
        cell_h: float,
        m: int,
    ) -> list[tuple[int, int]]:
        """Per-row grid cell ids, clamped exactly like ``GridIndex.cell_of``."""
        n = len(xs)
        if self._batch(n):
            np = self._np
            i = ((np.asarray(xs, dtype=np.float64) - min_x) / cell_w)
            j = ((np.asarray(ys, dtype=np.float64) - min_y) / cell_h)
            # astype truncates toward zero, matching int().
            ci = np.minimum(np.maximum(i.astype(np.int64), 0), m - 1)
            cj = np.minimum(np.maximum(j.astype(np.int64), 0), m - 1)
            return list(zip(ci.tolist(), cj.tolist()))
        out = []
        for r in range(n):
            i = int((xs[r] - min_x) / cell_w)
            j = int((ys[r] - min_y) / cell_h)
            out.append((min(max(i, 0), m - 1), min(max(j, 0), m - 1)))
        return out

    # ------------------------------------------------------------------
    # Rect-column kernels
    # ------------------------------------------------------------------
    def rects_intersecting(
        self,
        minxs: Sequence[float],
        minys: Sequence[float],
        maxxs: Sequence[float],
        maxys: Sequence[float],
        rect,
    ) -> list[bool]:
        """Per-row mask: does stored rect ``i`` intersect ``rect`` (closed)."""
        n = len(minxs)
        if self._batch(n):
            np = self._np
            mask = (
                (np.asarray(minxs, dtype=np.float64) <= rect.max_x)
                & (np.asarray(maxxs, dtype=np.float64) >= rect.min_x)
                & (np.asarray(minys, dtype=np.float64) <= rect.max_y)
                & (np.asarray(maxys, dtype=np.float64) >= rect.min_y)
            )
            return mask.tolist()
        return [
            minxs[i] <= rect.max_x
            and rect.min_x <= maxxs[i]
            and minys[i] <= rect.max_y
            and rect.min_y <= maxys[i]
            for i in range(n)
        ]

    def rects_contained_in(
        self,
        minxs: Sequence[float],
        minys: Sequence[float],
        maxxs: Sequence[float],
        maxys: Sequence[float],
        rect,
    ) -> list[bool]:
        """Per-row mask: is stored rect ``i`` fully inside ``rect``."""
        n = len(minxs)
        if self._batch(n):
            np = self._np
            mask = (
                (np.asarray(minxs, dtype=np.float64) >= rect.min_x)
                & (np.asarray(minys, dtype=np.float64) >= rect.min_y)
                & (np.asarray(maxxs, dtype=np.float64) <= rect.max_x)
                & (np.asarray(maxys, dtype=np.float64) <= rect.max_y)
            )
            return mask.tolist()
        return [
            rect.min_x <= minxs[i]
            and rect.min_y <= minys[i]
            and rect.max_x >= maxxs[i]
            and rect.max_y >= maxys[i]
            for i in range(n)
        ]

    def range_affected(
        self,
        minxs: Sequence[float],
        minys: Sequence[float],
        maxxs: Sequence[float],
        maxys: Sequence[float],
        p,
        p_lst,
    ) -> list[bool]:
        """Per-row ``RangeQuery.is_affected_by`` over query-rect columns.

        Row ``i`` is affected iff membership of ``p`` in rect ``i``
        differs from membership of ``p_lst`` (``p_lst is None`` counts as
        outside every rectangle).
        """
        n = len(minxs)
        if self._batch(n):
            np = self._np
            lox = np.asarray(minxs, dtype=np.float64)
            loy = np.asarray(minys, dtype=np.float64)
            hix = np.asarray(maxxs, dtype=np.float64)
            hiy = np.asarray(maxys, dtype=np.float64)
            inside_new = (
                (lox <= p.x) & (p.x <= hix) & (loy <= p.y) & (p.y <= hiy)
            )
            if p_lst is None:
                return inside_new.tolist()
            inside_old = (
                (lox <= p_lst.x) & (p_lst.x <= hix)
                & (loy <= p_lst.y) & (p_lst.y <= hiy)
            )
            return (inside_new != inside_old).tolist()
        out = []
        for i in range(n):
            inside_new = (
                minxs[i] <= p.x <= maxxs[i] and minys[i] <= p.y <= maxys[i]
            )
            inside_old = p_lst is not None and (
                minxs[i] <= p_lst.x <= maxxs[i]
                and minys[i] <= p_lst.y <= maxys[i]
            )
            out.append(inside_new != inside_old)
        return out

    def min_overlap_child(
        self,
        minxs: Sequence[float],
        minys: Sequence[float],
        maxxs: Sequence[float],
        maxys: Sequence[float],
        rect,
    ) -> int:
        """Row of the R* least-``(overlap delta, enlargement, area)`` child.

        Batch form of ``RStarTree._pick_min_overlap_child``'s selection
        rule: for each candidate row, grow its MBR to cover ``rect`` and
        sum the resulting pairwise overlap increase against every sibling
        (left to right, exactly as the scalar loop accumulates); the
        first row at the lexicographic minimum key wins.  The scalar
        loop's containment fast path and early abort are pure pruning —
        the full computation reproduces their keys exactly (a containing
        child has overlap delta and enlargement exactly ``0.0``; an
        aborted candidate's full sum exceeds the running best because the
        per-sibling terms are non-negative in floating point).
        """
        n = len(minxs)
        if n == 0:
            raise ValueError("min_overlap_child needs at least one row")
        if self._batch(n):
            np = self._np
            lox = np.asarray(minxs, dtype=np.float64)
            loy = np.asarray(minys, dtype=np.float64)
            hix = np.asarray(maxxs, dtype=np.float64)
            hiy = np.asarray(maxys, dtype=np.float64)
            ulox = np.minimum(lox, rect.min_x)
            uloy = np.minimum(loy, rect.min_y)
            uhix = np.maximum(hix, rect.max_x)
            uhiy = np.maximum(hiy, rect.max_y)
            areas = (hix - lox) * (hiy - loy)
            enlargement = (uhix - ulox) * (uhiy - uloy) - areas
            # Containment fast path, mirroring the scalar branch: a child
            # already covering ``rect`` has overlap delta and enlargement
            # exactly ``0.0``, so the smallest-area containing row (first
            # on ties, like the scalar strict-``<`` scan) wins — *unless*
            # some non-containing row also has enlargement ``0.0`` (a
            # degenerate MBR growing along a zero-extent axis), whose key
            # could tie at ``(0.0, 0.0, area)`` too; then the full
            # pairwise pass below decides.
            containing = (
                (lox <= rect.min_x) & (loy <= rect.min_y)
                & (hix >= rect.max_x) & (hiy >= rect.max_y)
            )
            if containing.any() and not bool(
                (~containing & (enlargement == 0.0)).any()
            ):
                crows = np.flatnonzero(containing)
                return int(crows[np.argmin(areas[crows])])
            # One stacked pairwise pass: rows 0..n-1 hold the union MBRs,
            # rows n..2n-1 the originals, columns the siblings.  Every
            # element evaluates the exact per-pair overlap expression of
            # the scalar loop, so the difference of the two row blocks
            # matches its per-sibling ``grown`` terms bit for bit.
            slox = np.concatenate((ulox, lox))
            sloy = np.concatenate((uloy, loy))
            shix = np.concatenate((uhix, hix))
            shiy = np.concatenate((uhiy, hiy))
            w = np.minimum(shix[:, None], hix[None, :]) - np.maximum(
                slox[:, None], lox[None, :]
            )
            h = np.minimum(shiy[:, None], hiy[None, :]) - np.maximum(
                sloy[:, None], loy[None, :]
            )
            ov = np.where((w <= 0.0) | (h <= 0.0), 0.0, w * h)
            grown = ov[:n] - ov[n:]
            np.fill_diagonal(grown, 0.0)
            # Sequential row sums: matches the scalar left-to-right
            # accumulation bit for bit (the terms are >= 0, so skipping
            # the zero terms — as the scalar loop does — is a no-op).
            deltas = np.cumsum(grown, axis=1)[:, -1]
            # Stable lexicographic argmin — first row at the minimum
            # ``(overlap delta, enlargement, area)`` key, like the scalar
            # scan's strict ``<`` comparisons.
            return int(np.lexsort((areas, enlargement, deltas))[0])
        best = 0
        best_key = (math.inf, math.inf, math.inf)
        for i in range(n):
            ulox = min(minxs[i], rect.min_x)
            uloy = min(minys[i], rect.min_y)
            uhix = max(maxxs[i], rect.max_x)
            uhiy = max(maxys[i], rect.max_y)
            area = (maxxs[i] - minxs[i]) * (maxys[i] - minys[i])
            if (
                ulox == minxs[i] and uloy == minys[i]
                and uhix == maxxs[i] and uhiy == maxys[i]
            ):
                key = (0.0, 0.0, area)
                if key < best_key:
                    best_key = key
                    best = i
                continue
            overlap_delta = 0.0
            aborted = False
            best_delta = best_key[0]
            for j in range(n):
                if j == i:
                    continue
                w_u = min(uhix, maxxs[j]) - max(ulox, minxs[j])
                h_u = min(uhiy, maxys[j]) - max(uloy, minys[j])
                grown = 0.0 if w_u <= 0.0 or h_u <= 0.0 else w_u * h_u
                w_o = min(maxxs[i], maxxs[j]) - max(minxs[i], minxs[j])
                h_o = min(maxys[i], maxys[j]) - max(minys[i], minys[j])
                grown -= 0.0 if w_o <= 0.0 or h_o <= 0.0 else w_o * h_o
                if grown > 0.0:
                    overlap_delta += grown
                    if overlap_delta > best_delta:
                        aborted = True
                        break
            if aborted:
                continue
            enlargement = (uhix - ulox) * (uhiy - uloy) - area
            key = (overlap_delta, enlargement, area)
            if key < best_key:
                best_key = key
                best = i
        return best

    def quadrant_corners(
        self,
        px: float,
        py: float,
        minxs: Sequence[float],
        minys: Sequence[float],
        maxxs: Sequence[float],
        maxys: Sequence[float],
        sx: float,
        sy: float,
        width: float,
        height: float,
    ) -> list[tuple[float, float]]:
        """Quadrant-local obstacle corners for the Section 5.3 staircase.

        Batch form of ``repro.core.batch._local_min_corner`` over obstacle
        columns: rows that cannot constrain the quadrant are dropped, the
        rest contribute ``(max(lx1, 0), max(ly1, 0))`` in input order.
        ``np.where(v >= 0.0, v, 0.0)`` replicates Python's
        ``max(v, 0.0)`` exactly, including for ``-0.0``.
        """
        n = len(minxs)
        if self._batch(n):
            np = self._np
            lox = np.asarray(minxs, dtype=np.float64)
            loy = np.asarray(minys, dtype=np.float64)
            hix = np.asarray(maxxs, dtype=np.float64)
            hiy = np.asarray(maxys, dtype=np.float64)
            if sx > 0:
                lx1, lx2 = lox - px, hix - px
            else:
                lx1, lx2 = px - hix, px - lox
            if sy > 0:
                ly1, ly2 = loy - py, hiy - py
            else:
                ly1, ly2 = py - hiy, py - loy
            keep = ~(
                (lx2 <= 0.0) | (ly2 <= 0.0) | (lx1 >= width) | (ly1 >= height)
            )
            cx = np.where(lx1 >= 0.0, lx1, 0.0)
            cy = np.where(ly1 >= 0.0, ly1, 0.0)
            return [
                (x, y)
                for k, x, y in zip(keep.tolist(), cx.tolist(), cy.tolist())
                if k
            ]
        out = []
        for i in range(n):
            if sx > 0:
                lx1, lx2 = minxs[i] - px, maxxs[i] - px
            else:
                lx1, lx2 = px - maxxs[i], px - minxs[i]
            if sy > 0:
                ly1, ly2 = minys[i] - py, maxys[i] - py
            else:
                ly1, ly2 = py - maxys[i], py - minys[i]
            if lx2 <= 0.0 or ly2 <= 0.0 or lx1 >= width or ly1 >= height:
                continue
            out.append((max(lx1, 0.0), max(ly1, 0.0)))
        return out

    # ------------------------------------------------------------------
    # Tick-wide row kernels (gather -> dispatch -> scatter pipeline)
    # ------------------------------------------------------------------
    def affected_rows(
        self,
        minxs: Sequence[float],
        minys: Sequence[float],
        maxxs: Sequence[float],
        maxys: Sequence[float],
        nxs: Sequence[float],
        nys: Sequence[float],
        oxs: Sequence[float],
        oys: Sequence[float],
    ) -> tuple[list[bool], list[bool]]:
        """Row-wise ``range_affected`` with a per-row point pair.

        Unlike :meth:`range_affected` (one update against many rects),
        every row here carries its own query rect *and* its own
        new/old point pair, so a whole tick's (report x candidate range
        query) work becomes one dispatch.  Returns ``(affected,
        inside_new)`` masks; ``inside_new`` is scattered into
        ``reevaluate_range`` so the membership flip needs no second
        containment check.  Pure comparisons — no FP risk.
        """
        n = len(minxs)
        if self._batch(n):
            np = self._np
            lox = np.asarray(minxs, dtype=np.float64)
            loy = np.asarray(minys, dtype=np.float64)
            hix = np.asarray(maxxs, dtype=np.float64)
            hiy = np.asarray(maxys, dtype=np.float64)
            nx = np.asarray(nxs, dtype=np.float64)
            ny = np.asarray(nys, dtype=np.float64)
            ox = np.asarray(oxs, dtype=np.float64)
            oy = np.asarray(oys, dtype=np.float64)
            inside_new = (lox <= nx) & (nx <= hix) & (loy <= ny) & (ny <= hiy)
            inside_old = (lox <= ox) & (ox <= hix) & (loy <= oy) & (oy <= hiy)
            return (inside_new != inside_old).tolist(), inside_new.tolist()
        affected = []
        inside = []
        for i in range(n):
            inside_new = (
                minxs[i] <= nxs[i] <= maxxs[i]
                and minys[i] <= nys[i] <= maxys[i]
            )
            inside_old = (
                minxs[i] <= oxs[i] <= maxxs[i]
                and minys[i] <= oys[i] <= maxys[i]
            )
            affected.append(inside_new != inside_old)
            inside.append(inside_new)
        return affected, inside

    def quadrant_corners_rows(
        self,
        pxs: Sequence[float],
        pys: Sequence[float],
        minxs: Sequence[float],
        minys: Sequence[float],
        maxxs: Sequence[float],
        maxys: Sequence[float],
        sxs: Sequence[float],
        sys_: Sequence[float],
        widths: Sequence[float],
        heights: Sequence[float],
    ) -> tuple[list[bool], list[float], list[float]]:
        """Row-wise :meth:`quadrant_corners` with per-row point/sign/extent.

        Each row is one (update, quadrant, obstacle) combination, so a
        whole tick's Section 5.3 corner localisation becomes one
        dispatch.  Returns parallel ``(keep, corner_x, corner_y)``
        columns in input order; callers scatter kept corners back per
        (update, quadrant) segment.  The sign-dependent subtractions are
        computed per element exactly as the scalar branch orders them
        (``np.where`` selects between elementwise expressions whose kept
        lane performs the identical subtraction), and ``np.where(v >=
        0.0, v, 0.0)`` replicates ``max(v, 0.0)`` including ``-0.0``.
        """
        n = len(minxs)
        if self._batch(n):
            np = self._np
            px = np.asarray(pxs, dtype=np.float64)
            py = np.asarray(pys, dtype=np.float64)
            lox = np.asarray(minxs, dtype=np.float64)
            loy = np.asarray(minys, dtype=np.float64)
            hix = np.asarray(maxxs, dtype=np.float64)
            hiy = np.asarray(maxys, dtype=np.float64)
            xpos = np.asarray(sxs, dtype=np.float64) > 0
            ypos = np.asarray(sys_, dtype=np.float64) > 0
            lx1 = np.where(xpos, lox - px, px - hix)
            lx2 = np.where(xpos, hix - px, px - lox)
            ly1 = np.where(ypos, loy - py, py - hiy)
            ly2 = np.where(ypos, hiy - py, py - loy)
            keep = ~(
                (lx2 <= 0.0) | (ly2 <= 0.0)
                | (lx1 >= np.asarray(widths, dtype=np.float64))
                | (ly1 >= np.asarray(heights, dtype=np.float64))
            )
            cx = np.where(lx1 >= 0.0, lx1, 0.0)
            cy = np.where(ly1 >= 0.0, ly1, 0.0)
            return keep.tolist(), cx.tolist(), cy.tolist()
        keep = []
        cxs = []
        cys = []
        for i in range(n):
            if sxs[i] > 0:
                lx1, lx2 = minxs[i] - pxs[i], maxxs[i] - pxs[i]
            else:
                lx1, lx2 = pxs[i] - maxxs[i], pxs[i] - minxs[i]
            if sys_[i] > 0:
                ly1, ly2 = minys[i] - pys[i], maxys[i] - pys[i]
            else:
                ly1, ly2 = pys[i] - maxys[i], pys[i] - minys[i]
            keep.append(
                not (
                    lx2 <= 0.0 or ly2 <= 0.0
                    or lx1 >= widths[i] or ly1 >= heights[i]
                )
            )
            cxs.append(max(lx1, 0.0))
            cys.append(max(ly1, 0.0))
        return keep, cxs, cys

    # ------------------------------------------------------------------
    # Segmented kernels (per-report segments over shared resident columns)
    # ------------------------------------------------------------------
    def affected_deltas(
        self,
        minxs: Sequence[float],
        minys: Sequence[float],
        maxxs: Sequence[float],
        maxys: Sequence[float],
        seg_lens: Sequence[int],
        nxs: Sequence[float],
        nys: Sequence[float],
        oxs: Sequence[float],
        oys: Sequence[float],
    ) -> tuple[list[bool], list[bool]]:
        """Segmented :meth:`affected_rows`: one point pair per segment.

        Each report contributes one ``(nx, ny, ox, oy)`` pair and a run
        of ``seg_lens[k]`` candidate rects in the rect columns (the
        planner extends them straight from cached candidate columns —
        no per-row point duplication at gather time).  The points are
        broadcast over their segment with ``np.repeat`` (exact copies,
        no arithmetic), then the test is the comparison-only
        ``affected_rows`` arithmetic.  Returns ``(affected,
        inside_new)`` masks in rect-row order.
        """
        n = len(minxs)
        if self._batch(n):
            np = self._np
            reps = np.asarray(seg_lens, dtype=np.int64)
            nx = np.repeat(np.asarray(nxs, dtype=np.float64), reps)
            ny = np.repeat(np.asarray(nys, dtype=np.float64), reps)
            ox = np.repeat(np.asarray(oxs, dtype=np.float64), reps)
            oy = np.repeat(np.asarray(oys, dtype=np.float64), reps)
            lox = np.asarray(minxs, dtype=np.float64)
            loy = np.asarray(minys, dtype=np.float64)
            hix = np.asarray(maxxs, dtype=np.float64)
            hiy = np.asarray(maxys, dtype=np.float64)
            inside_new = (lox <= nx) & (nx <= hix) & (loy <= ny) & (ny <= hiy)
            inside_old = (lox <= ox) & (ox <= hix) & (loy <= oy) & (oy <= hiy)
            return (inside_new != inside_old).tolist(), inside_new.tolist()
        affected = []
        inside = []
        i = 0
        for k, seg in enumerate(seg_lens):
            nx, ny, ox, oy = nxs[k], nys[k], oxs[k], oys[k]
            for _ in range(seg):
                inside_new = (
                    minxs[i] <= nx <= maxxs[i]
                    and minys[i] <= ny <= maxys[i]
                )
                inside_old = (
                    minxs[i] <= ox <= maxxs[i]
                    and minys[i] <= oy <= maxys[i]
                )
                affected.append(inside_new != inside_old)
                inside.append(inside_new)
                i += 1
        return affected, inside

    def knn_gate_rows(
        self,
        cxs: Sequence[float],
        cys: Sequence[float],
        rads: Sequence[float],
        seg_lens: Sequence[int],
        nxs: Sequence[float],
        nys: Sequence[float],
        oxs: Sequence[float],
        oys: Sequence[float],
    ) -> tuple[list[bool], list[bool], list[bool]]:
        """Segmented quarantine-circle membership gates for kNN queries.

        Each report contributes one point pair and ``seg_lens[k]``
        candidate circle rows (centre + radius).  Replicates
        ``Circle.contains_point`` with ``eps == 0`` exactly: the centre-
        minus-point squared distance (``dx*dx + dy*dy``, matching
        ``Point.squared_distance_to``'s operand order) against ``r*r``.
        Returns ``(in_new, in_old, on_old)`` masks in circle-row order,
        ``on_old`` flagging an old point on the circle within
        ``BOUNDARY_REL_TOL`` (the test of ``KNNQuery.is_affected_by``);
        the delta consumer turns them into ``is_affected_by`` verdicts
        and feeds the first two to ``reevaluate_knn`` so the scalar path
        never re-tests the quarantine circle.
        """
        n = len(cxs)
        if self._batch(n):
            np = self._np
            reps = np.asarray(seg_lens, dtype=np.int64)
            nx = np.repeat(np.asarray(nxs, dtype=np.float64), reps)
            ny = np.repeat(np.asarray(nys, dtype=np.float64), reps)
            ox = np.repeat(np.asarray(oxs, dtype=np.float64), reps)
            oy = np.repeat(np.asarray(oys, dtype=np.float64), reps)
            cx = np.asarray(cxs, dtype=np.float64)
            cy = np.asarray(cys, dtype=np.float64)
            r = np.asarray(rads, dtype=np.float64)
            rr = r * r
            dxn = cx - nx
            dyn = cy - ny
            dxo = cx - ox
            dyo = cy - oy
            in_new = dxn * dxn + dyn * dyn <= rr
            d2o = dxo * dxo + dyo * dyo
            in_old = d2o <= rr
            on_old = np.abs(d2o - rr) <= BOUNDARY_REL_TOL * rr
            return in_new.tolist(), in_old.tolist(), on_old.tolist()
        in_new = []
        in_old = []
        on_old = []
        i = 0
        for k, seg in enumerate(seg_lens):
            nx, ny, ox, oy = nxs[k], nys[k], oxs[k], oys[k]
            for _ in range(seg):
                cx, cy, r = cxs[i], cys[i], rads[i]
                dxn = cx - nx
                dyn = cy - ny
                dxo = cx - ox
                dyo = cy - oy
                rr = r * r
                d2o = dxo * dxo + dyo * dyo
                in_new.append(dxn * dxn + dyn * dyn <= rr)
                in_old.append(d2o <= rr)
                on_old.append(abs(d2o - rr) <= BOUNDARY_REL_TOL * rr)
                i += 1
        return in_new, in_old, on_old

    def quadrant_corners_grouped(
        self,
        pxs: Sequence[float],
        pys: Sequence[float],
        quad_widths: Sequence[Sequence[float]],
        quad_heights: Sequence[Sequence[float]],
        seg_lens: Sequence[int],
        minxs: Sequence[float],
        minys: Sequence[float],
        maxxs: Sequence[float],
        maxys: Sequence[float],
    ) -> tuple[list[bool], list[bool], list[float], list[float]]:
        """Segmented :meth:`quadrant_corners_rows` plus containment.

        Each report contributes one point, four quadrant ``(width,
        height)`` extents (``quad_widths[q][k]`` is quadrant ``q`` of
        segment ``k``), and ``seg_lens[k]`` *candidate* obstacle rects —
        candidates, because the rects come straight from resident
        per-cell columns and the closed containment test
        (``collect_range_obstacles``'s exclusion) moves in-kernel: a
        contained rect is not an obstacle for this point and its rows
        are dropped at scatter.  Quadrant signs are the module constants
        (no sign columns), so the sign-dependent subtractions compile to
        straight-line expressions per quadrant block.

        Returns ``(contained, keep, corner_x, corner_y)``: ``contained``
        in rect-row order (length ``n``), the corner columns
        quadrant-major (block ``q`` covers global rows ``[q*n, (q+1)*n)``
        in rect-row order).  All comparisons / sign-preserving ``max`` —
        same FP rules as :meth:`quadrant_corners_rows`.
        """
        n = len(minxs)
        if self._batch(5 * n):
            np = self._np
            reps = np.asarray(seg_lens, dtype=np.int64)
            px = np.repeat(np.asarray(pxs, dtype=np.float64), reps)
            py = np.repeat(np.asarray(pys, dtype=np.float64), reps)
            lox = np.asarray(minxs, dtype=np.float64)
            loy = np.asarray(minys, dtype=np.float64)
            hix = np.asarray(maxxs, dtype=np.float64)
            hiy = np.asarray(maxys, dtype=np.float64)
            contained = (
                (lox <= px) & (px <= hix) & (loy <= py) & (py <= hiy)
            )
            keeps = []
            cxs_out = []
            cys_out = []
            for q, (sx, sy) in enumerate(_QUADRANT_SIGNS):
                if sx > 0:
                    lx1 = lox - px
                    lx2 = hix - px
                else:
                    lx1 = px - hix
                    lx2 = px - lox
                if sy > 0:
                    ly1 = loy - py
                    ly2 = hiy - py
                else:
                    ly1 = py - hiy
                    ly2 = py - loy
                w = np.repeat(
                    np.asarray(quad_widths[q], dtype=np.float64), reps
                )
                h = np.repeat(
                    np.asarray(quad_heights[q], dtype=np.float64), reps
                )
                keeps.append(
                    ~((lx2 <= 0.0) | (ly2 <= 0.0) | (lx1 >= w) | (ly1 >= h))
                )
                cxs_out.append(np.where(lx1 >= 0.0, lx1, 0.0))
                cys_out.append(np.where(ly1 >= 0.0, ly1, 0.0))
            return (
                contained.tolist(),
                np.concatenate(keeps).tolist() if n else [],
                np.concatenate(cxs_out).tolist() if n else [],
                np.concatenate(cys_out).tolist() if n else [],
            )
        contained = []
        i = 0
        for k, seg in enumerate(seg_lens):
            px, py = pxs[k], pys[k]
            for _ in range(seg):
                contained.append(
                    minxs[i] <= px <= maxxs[i]
                    and minys[i] <= py <= maxys[i]
                )
                i += 1
        keep = []
        cxs_out = []
        cys_out = []
        for q, (sx, sy) in enumerate(_QUADRANT_SIGNS):
            i = 0
            for k, seg in enumerate(seg_lens):
                px, py = pxs[k], pys[k]
                width = quad_widths[q][k]
                height = quad_heights[q][k]
                for _ in range(seg):
                    if sx > 0:
                        lx1, lx2 = minxs[i] - px, maxxs[i] - px
                    else:
                        lx1, lx2 = px - maxxs[i], px - minxs[i]
                    if sy > 0:
                        ly1, ly2 = minys[i] - py, maxys[i] - py
                    else:
                        ly1, ly2 = py - maxys[i], py - minys[i]
                    keep.append(
                        not (
                            lx2 <= 0.0 or ly2 <= 0.0
                            or lx1 >= width or ly1 >= height
                        )
                    )
                    cxs_out.append(max(lx1, 0.0))
                    cys_out.append(max(ly1, 0.0))
                    i += 1
        return contained, keep, cxs_out, cys_out

    # ------------------------------------------------------------------
    # Grouped kernels (one dispatch over many queries, query-id keyed)
    # ------------------------------------------------------------------
    def grouped_points_in_rects(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        minxs: Sequence[float],
        minys: Sequence[float],
        maxxs: Sequence[float],
        maxys: Sequence[float],
    ) -> list[list[bool]]:
        """Containment of every point against every query rect.

        One dispatch answers ``Q`` range queries over the same ``N``
        point columns; ``out[q][i]`` is ``points_in_rect`` of point ``i``
        against rect ``q``.  Counts ``Q * N`` rows.  Pure comparisons.
        """
        q = len(minxs)
        n = len(xs)
        if q == 0 or n == 0:
            return [[False] * n for _ in range(q)]
        if self._batch(q * n):
            np = self._np
            x = np.asarray(xs, dtype=np.float64)[None, :]
            y = np.asarray(ys, dtype=np.float64)[None, :]
            lox = np.asarray(minxs, dtype=np.float64)[:, None]
            loy = np.asarray(minys, dtype=np.float64)[:, None]
            hix = np.asarray(maxxs, dtype=np.float64)[:, None]
            hiy = np.asarray(maxys, dtype=np.float64)[:, None]
            mask = (x >= lox) & (x <= hix) & (y >= loy) & (y <= hiy)
            return [row.tolist() for row in mask]
        return [
            [
                minxs[j] <= xs[i] <= maxxs[j]
                and minys[j] <= ys[i] <= maxys[j]
                for i in range(n)
            ]
            for j in range(q)
        ]

    def grouped_top_k(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        qxs: Sequence[float],
        qys: Sequence[float],
        ks: Sequence[int],
    ) -> list[list[int]]:
        """Segment-reduced :meth:`top_k_rows` for many centres at once.

        ``out[q]`` lists the rows of the ``ks[q]`` nearest points to
        ``(qxs[q], qys[q])`` ordered by ``(d2, row)`` — identical to a
        per-centre ``top_k_rows`` call.  The distance matrix uses the
        same elementwise ``dx*dx + dy*dy`` arithmetic, and a stable
        argsort reproduces the ``(d2, row)`` tie order exactly.  Counts
        ``Q * N`` rows.
        """
        q = len(qxs)
        n = len(xs)
        if q == 0:
            return []
        if n == 0:
            return [[] for _ in range(q)]
        if self._batch(q * n):
            np = self._np
            dx = np.asarray(xs, dtype=np.float64)[None, :] - np.asarray(
                qxs, dtype=np.float64
            )[:, None]
            dy = np.asarray(ys, dtype=np.float64)[None, :] - np.asarray(
                qys, dtype=np.float64
            )[:, None]
            d2 = dx * dx + dy * dy
            order = np.argsort(d2, axis=1, kind="stable")
            return [
                order[j, : min(ks[j], n)].tolist() if ks[j] > 0 else []
                for j in range(q)
            ]
        out = []
        for j in range(q):
            if ks[j] <= 0:
                out.append([])
                continue
            cx, cy = qxs[j], qys[j]
            d2 = []
            for i in range(n):
                dx = xs[i] - cx
                dy = ys[i] - cy
                d2.append(dx * dx + dy * dy)
            out.append(
                heapq.nsmallest(
                    min(ks[j], n), range(n), key=lambda i: (d2[i], i)
                )
            )
        return out

    # ------------------------------------------------------------------
    # Scalar-value helpers
    # ------------------------------------------------------------------
    def mask_leq(
        self, values: Sequence[float], bound: float
    ) -> list[bool]:
        """Per-row mask ``values[i] <= bound`` (comparison only, no FP risk)."""
        n = len(values)
        if self._batch(n):
            np = self._np
            return (np.asarray(values, dtype=np.float64) <= bound).tolist()
        return [values[i] <= bound for i in range(n)]


#: Shared default instance (NumPy when available, no metrics).
DEFAULT_KERNELS = Kernels()
