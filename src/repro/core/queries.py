"""Continuous spatial queries and their quarantine areas (Section 3.3).

The server stores, for each registered query, (1) its parameters, (2) the
current result set, and (3) the *quarantine area*: a region such that while
every result object stays inside it and every non-result object stays
outside it, the result cannot change.  For a range query the quarantine
area is the query rectangle itself; for a kNN query it is a circle centred
at the query point whose radius lies strictly between ``Delta(q, o_k.sr)``
and ``delta(q, o_{k+1}.sr)``.
"""

from __future__ import annotations

import itertools
from typing import Hashable

from repro.geometry.circle import BOUNDARY_REL_TOL, Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect

ObjectId = Hashable

_query_counter = itertools.count(1)


class Query:
    """Base class for continuous queries monitored by the server.

    Queries use identity semantics (each registered query is a distinct
    monitoring session, even if the parameters coincide), so the default
    ``hash`` / ``eq`` are intentionally kept.
    """

    __slots__ = ("query_id",)

    def __init__(self, query_id: str | None = None) -> None:
        self.query_id = query_id or f"q{next(_query_counter)}"

    # -- grid-index interface -------------------------------------------------
    def quarantine_bounding_rect(self) -> Rect:
        """Bounding rectangle of the quarantine area."""
        raise NotImplementedError

    def quarantine_overlaps(self, rect: Rect) -> bool:
        """Whether the quarantine area intersects ``rect``."""
        raise NotImplementedError

    def quarantine_contains(self, p: Point) -> bool:
        """Whether ``p`` lies inside the quarantine area."""
        raise NotImplementedError

    # -- update filtering (Section 3.3) ---------------------------------------
    def is_affected_by(self, p: Point, p_lst: Point | None) -> bool:
        """Whether an update moving from ``p_lst`` to ``p`` may change results.

        ``p_lst`` is ``None`` for an object the server sees for the first
        time (treated as coming from outside every quarantine area).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return f"{type(self).__name__}({self.query_id})"


class RangeQuery(Query):
    """A continuous range query: report all objects inside ``rect``."""

    __slots__ = ("rect", "results", "_clip_memo")

    def __init__(self, rect: Rect, query_id: str | None = None) -> None:
        super().__init__(query_id)
        self.rect = rect
        #: Current result set, maintained by the server.
        self.results: set[ObjectId] = set()
        #: Memoised ``rect.intersection(cell)`` per cell rectangle.  The
        #: query rectangle is immutable, so entries never invalidate; the
        #: grid hands out interned cell rects, keeping the memo tiny.
        self._clip_memo: dict[Rect, Rect | None] = {}

    def clipped_to(self, cell: Rect) -> Rect | None:
        """``rect ∩ cell``, memoised per cell (hot in safe-region computation)."""
        try:
            return self._clip_memo[cell]
        except KeyError:
            clipped = self._clip_memo[cell] = self.rect.intersection(cell)
            return clipped

    def quarantine_bounding_rect(self) -> Rect:
        return self.rect

    def quarantine_overlaps(self, rect: Rect) -> bool:
        return self.rect.intersects(rect)

    def quarantine_contains(self, p: Point) -> bool:
        return self.rect.contains_point(p)

    def is_affected_by(self, p: Point, p_lst: Point | None) -> bool:
        inside_new = self.rect.contains_point(p)
        inside_old = p_lst is not None and self.rect.contains_point(p_lst)
        return inside_new != inside_old

    def result_snapshot(self) -> frozenset[ObjectId]:
        """Immutable copy of the current result set."""
        return frozenset(self.results)


class KNNQuery(Query):
    """A continuous k-nearest-neighbour query anchored at ``center``.

    ``order_sensitive`` queries treat ``[a, b]`` and ``[b, a]`` as different
    results; they are the default in the paper's workload (Section 7.1).
    ``results`` is maintained in ascending distance order for the
    order-sensitive variant; for the order-insensitive variant the order in
    the list is incidental and comparisons use sets.
    """

    __slots__ = (
        "center", "k", "order_sensitive", "results", "_radius",
        "_circle_memo", "_brect_memo",
    )

    def __init__(
        self,
        center: Point,
        k: int,
        order_sensitive: bool = True,
        query_id: str | None = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        super().__init__(query_id)
        self.center = center
        self.k = k
        self.order_sensitive = order_sensitive
        #: Current result, nearest first; maintained by the server.
        self.results: list[ObjectId] = []
        #: Quarantine-circle radius; 0 until the query is first evaluated.
        self._radius: float = 0.0
        self._circle_memo: Circle | None = None
        self._brect_memo: Rect | None = None

    @property
    def radius(self) -> float:
        """Quarantine-circle radius; assignment invalidates the memos."""
        return self._radius

    @radius.setter
    def radius(self, value: float) -> None:
        if value != self._radius:
            self._radius = value
            self._circle_memo = None
            self._brect_memo = None

    def quarantine_circle(self) -> Circle:
        """The quarantine area (a circle centred at the query point).

        The circle (and its bounding rectangle below) is memoised until the
        radius changes: the grid index probes it once per covered cell and
        every ``is_affected_by`` check needs it twice.
        """
        circle = self._circle_memo
        if circle is None:
            circle = self._circle_memo = Circle(self.center, self._radius)
        return circle

    def quarantine_bounding_rect(self) -> Rect:
        brect = self._brect_memo
        if brect is None:
            brect = self._brect_memo = self.quarantine_circle().bounding_rect()
        return brect

    def quarantine_overlaps(self, rect: Rect) -> bool:
        return self.quarantine_circle().intersects_rect(rect)

    def quarantine_contains(self, p: Point) -> bool:
        return self.quarantine_circle().contains_point(p)

    def is_affected_by(self, p: Point, p_lst: Point | None) -> bool:
        # The arithmetic of ``quarantine_contains`` (squared distance
        # against ``r*r``), inlined to share the old point's distance.
        center = self.center
        rr = self._radius * self._radius
        inside_new = center.squared_distance_to(p) <= rr
        if p_lst is None:
            return inside_new
        d2 = center.squared_distance_to(p_lst)
        if abs(d2 - rr) <= BOUNDARY_REL_TOL * rr:
            # On the circle: with a distance tie at the k-th place the
            # radius equals the tied distance, and containment rounds a
            # tied result or non-result to either side, so a result can
            # leave and a non-result enter without a visible crossing.
            return True
        inside_old = d2 <= rr
        if self.order_sensitive:
            # Order may change from movement *within* the quarantine area:
            # unaffected only when both endpoints lie outside (Section 3.3).
            return inside_new or inside_old
        return inside_new != inside_old

    def result_snapshot(self) -> tuple[ObjectId, ...] | frozenset[ObjectId]:
        """Immutable copy of the current result.

        A tuple (ordered) for order-sensitive queries, a frozenset for
        order-insensitive ones — matching how equality of results is
        defined for each variant.
        """
        if self.order_sensitive:
            return tuple(self.results)
        return frozenset(self.results)
