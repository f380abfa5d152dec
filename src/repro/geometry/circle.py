"""Circles — the quarantine areas of kNN queries (Section 3.3)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geometry.point import Point
from repro.geometry.rect import Rect


#: Relative tolerance, on squared distances, within which a point counts
#: as lying on a quarantine circle.  Radii are computed from ``hypot``
#: distances while containment compares squared distances, so a point
#: tied at the radius can round to either side of ``contains_point``; a
#: few ulps would do, and the wider margin only costs a spare
#: reevaluation.
BOUNDARY_REL_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class Circle:
    """A closed disk centred at ``center`` with radius ``radius``."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError(f"negative radius: {self.radius}")

    def contains_point(self, p: Point, eps: float = 0.0) -> bool:
        """Whether ``p`` lies in the closed disk (within ``eps``).

        The exact (``eps == 0``) test compares squared distances — no
        square root, and the arithmetic (``dx*dx + dy*dy`` against
        ``r*r``) is elementwise-reproducible by the batch kernels
        (``math.hypot`` is not: CPython's correctly-rounded hypot and
        NumPy's differ in the last ulp).  The tolerant form keeps the
        distance metric so ``eps`` stays a length, not an area.
        """
        if eps == 0.0:
            return (
                self.center.squared_distance_to(p)
                <= self.radius * self.radius
            )
        return self.center.distance_to(p) <= self.radius + eps

    def contains_rect(self, rect: Rect) -> bool:
        """Whether the whole rectangle lies in the disk.

        True iff the corner farthest from the centre is within the radius.
        """
        return rect.max_dist_to_point(self.center) <= self.radius

    def intersects_rect(self, rect: Rect) -> bool:
        """Whether disk and rectangle share at least one point."""
        return rect.min_dist_to_point(self.center) <= self.radius

    def excludes_rect(self, rect: Rect) -> bool:
        """Whether the rectangle is entirely outside the open disk."""
        return rect.min_dist_to_point(self.center) >= self.radius

    def bounding_rect(self) -> Rect:
        """Axis-aligned bounding rectangle of the disk."""
        return Rect(
            self.center.x - self.radius,
            self.center.y - self.radius,
            self.center.x + self.radius,
            self.center.y + self.radius,
        )

    def expanded(self, amount: float) -> "Circle":
        """Disk grown (or shrunk, clamped at 0) by ``amount``."""
        return Circle(self.center, max(self.radius + amount, 0.0))

    @property
    def area(self) -> float:
        return math.pi * self.radius * self.radius

    @property
    def circumference(self) -> float:
        return 2.0 * math.pi * self.radius
