"""Rectangles: the region quadruple ``<x, y, width, height>`` of the paper.

Section 2.1 defines a region as a rectangle identified by its southwest
corner ``(x, y)`` and its extents ``(width, height)``, and pins down two
predicates this module implements exactly:

* *coverage*: a point ``o`` is covered by region ``r`` iff
  ``r.x < o.x <= r.x + r.width`` and ``r.y < o.y <= r.y + r.height``
  (open at the low edges, closed at the high edges, so the region tiling
  assigns every interior point to exactly one region);
* *neighborship*: two regions are neighbors iff their intersection is a
  line segment (a shared edge piece of positive length -- touching only at
  a corner does not count).
"""

from __future__ import annotations

import enum
from typing import Any, NoReturn, Optional, Tuple

from repro.geometry.point import Point

#: Absolute tolerance used when comparing region edge coordinates.  Regions
#: are produced by repeated exact halving of one root rectangle, so edges of
#: adjacent regions are bit-identical in practice; the tolerance only guards
#: against accumulated error in hand-constructed rectangles.
EDGE_TOLERANCE = 1e-9


class SplitAxis(enum.Enum):
    """Axis along which a region is cut in half.

    ``VERTICAL`` cuts with a vertical line (splitting the *width*, i.e. the
    longitude dimension); ``HORIZONTAL`` cuts with a horizontal line
    (splitting the *height*, the latitude dimension).
    """

    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"


class Rect:
    """An axis-aligned rectangle ``<x, y, width, height>``.

    Instances are immutable; all mutating-looking operations return new
    rectangles.  Rectangles are dictionary keys and geometry operands on
    every routed message, so the east and north edges ``x2``/``y2`` are
    stored at construction and the hash is computed once, on first use.
    The hash equals ``hash((x, y, width, height))``.
    """

    __slots__ = ("x", "y", "width", "height", "x2", "y2", "_hash")

    x: float
    y: float
    width: float
    height: float
    #: The x coordinate of the east edge.
    x2: float
    #: The y coordinate of the north edge.
    y2: float

    def __init__(self, x: float, y: float, width: float, height: float) -> None:
        if width <= 0 or height <= 0:
            raise ValueError(
                f"rectangle extents must be positive, got "
                f"width={width!r} height={height!r}"
            )
        _set_x(self, x)
        _set_y(self, y)
        _set_width(self, width)
        _set_height(self, height)
        _set_x2(self, x + width)
        _set_y2(self, y + height)
        _set_hash(self, -1)  # no hash() returns -1: "not computed yet"

    def __setattr__(self, name: str, value: Any) -> NoReturn:
        raise AttributeError(f"cannot assign to field {name!r} of Rect")

    def __delattr__(self, name: str) -> NoReturn:
        raise AttributeError(f"cannot delete field {name!r} of Rect")

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not Rect:
            return NotImplemented
        return (
            self.x == other.x
            and self.y == other.y
            and self.width == other.width
            and self.height == other.height
        )

    def __hash__(self) -> int:
        value = self._hash
        if value == -1:
            value = hash((self.x, self.y, self.width, self.height))
            _set_hash(self, value)
        return value

    def __reduce__(self) -> Tuple[type, Tuple[float, float, float, float]]:
        return (Rect, (self.x, self.y, self.width, self.height))

    def __repr__(self) -> str:
        return (
            f"Rect(x={self.x!r}, y={self.y!r}, width={self.width!r}, "
            f"height={self.height!r})"
        )

    # ------------------------------------------------------------------
    # Derived coordinates
    # ------------------------------------------------------------------

    @property
    def area(self) -> float:
        """Rectangle area."""
        return self.width * self.height

    @property
    def center(self) -> Point:
        """The center point; routing targets the center of a query region."""
        return Point(self.x + self.width / 2.0, self.y + self.height / 2.0)

    @property
    def aspect_ratio(self) -> float:
        """Long side divided by short side (always >= 1)."""
        long_side = max(self.width, self.height)
        short_side = min(self.width, self.height)
        return long_side / short_side

    def corners(self) -> Tuple[Point, Point, Point, Point]:
        """The four corners (SW, SE, NE, NW)."""
        return (
            Point(self.x, self.y),
            Point(self.x2, self.y),
            Point(self.x2, self.y2),
            Point(self.x, self.y2),
        )

    # ------------------------------------------------------------------
    # Coverage and containment
    # ------------------------------------------------------------------
    def covers(
        self,
        point: Point,
        closed_low_x: bool = False,
        closed_low_y: bool = False,
    ) -> bool:
        """Return whether ``point`` is covered by this region.

        Implements the paper's predicate exactly: open at the low (south and
        west) edges and closed at the high (north and east) edges.  The
        ``closed_low_*`` flags let the partition manager close the low edge
        for regions sitting on the boundary of the whole coordinate space,
        so that the space's own southwest border is still owned by someone.
        """
        if closed_low_x:
            x_ok = self.x <= point.x <= self.x2
        else:
            x_ok = self.x < point.x <= self.x2
        if not x_ok:
            return False
        if closed_low_y:
            return self.y <= point.y <= self.y2
        return self.y < point.y <= self.y2

    def contains_rect(self, other: "Rect") -> bool:
        """Whether ``other`` lies entirely inside this rectangle."""
        return (
            self.x <= other.x
            and self.y <= other.y
            and other.x2 <= self.x2
            and other.y2 <= self.y2
        )

    # ------------------------------------------------------------------
    # Intersection
    # ------------------------------------------------------------------
    def intersects(self, other: "Rect") -> bool:
        """Whether the two rectangles share interior area (not just edges)."""
        return (
            self.x < other.x2
            and other.x < self.x2
            and self.y < other.y2
            and other.y < self.y2
        )

    def touches(self, other: "Rect") -> bool:
        """Whether the two *closed* rectangles have a non-empty intersection.

        Unlike :meth:`intersects` this also reports contact of measure
        zero: a shared edge piece or a single shared corner point.  Query
        fan-out needs this weaker predicate because point coverage is
        closed at the high edges -- a region can own points of a query
        rectangle that it merely touches at its northeast corner.
        """
        return (
            self.x <= other.x2 + EDGE_TOLERANCE
            and other.x <= self.x2 + EDGE_TOLERANCE
            and self.y <= other.y2 + EDGE_TOLERANCE
            and other.y <= self.y2 + EDGE_TOLERANCE
        )

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """The overlapping rectangle, or ``None`` when no area is shared."""
        if not self.intersects(other):
            return None
        x = max(self.x, other.x)
        y = max(self.y, other.y)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        return Rect(x, y, x2 - x, y2 - y)

    def overlap_length_x(self, other: "Rect") -> float:
        """Length of the overlap of the two x-extents (0 when disjoint)."""
        return max(0.0, min(self.x2, other.x2) - max(self.x, other.x))

    def overlap_length_y(self, other: "Rect") -> float:
        """Length of the overlap of the two y-extents (0 when disjoint)."""
        return max(0.0, min(self.y2, other.y2) - max(self.y, other.y))

    # ------------------------------------------------------------------
    # Neighborship (paper Section 2.1)
    # ------------------------------------------------------------------
    def is_neighbor_of(self, other: "Rect") -> bool:
        """Whether the intersection of the two regions is a line segment.

        True when the regions abut along a vertical or horizontal edge and
        the shared edge piece has positive length.  Overlapping rectangles
        and rectangles that only touch at a corner are *not* neighbors.
        """
        # Inlined intersects/overlap_length_*: heartbeat processing tests
        # every gossiped region against our own.
        x, y, x2, y2 = self.x, self.y, self.x2, self.y2
        ox, oy, ox2, oy2 = other.x, other.y, other.x2, other.y2
        if x < ox2 and ox < x2 and y < oy2 and oy < y2:
            return False
        if abs(x2 - ox) <= EDGE_TOLERANCE or abs(ox2 - x) <= EDGE_TOLERANCE:
            overlap_y = (oy2 if oy2 < y2 else y2) - (oy if oy > y else y)
            if overlap_y > EDGE_TOLERANCE:
                return True
        if abs(y2 - oy) <= EDGE_TOLERANCE or abs(oy2 - y) <= EDGE_TOLERANCE:
            overlap_x = (ox2 if ox2 < x2 else x2) - (ox if ox > x else x)
            return overlap_x > EDGE_TOLERANCE
        return False

    # ------------------------------------------------------------------
    # Distance
    # ------------------------------------------------------------------
    def distance_to_point(self, point: Point) -> float:
        """Euclidean distance from the rectangle to ``point``.

        Zero when the point lies inside (or on the border of) the
        rectangle.  Greedy routing forwards a request to the neighbor whose
        region is closest to the destination coordinate; using the *region*
        distance (rather than, say, distance between centers) guarantees
        that every hop makes strict progress on a rectangular tiling.
        """
        px = point.x
        dx = self.x - px
        if dx < 0.0:
            dx = px - self.x2
            if dx < 0.0:
                dx = 0.0
        py = point.y
        dy = self.y - py
        if dy < 0.0:
            dy = py - self.y2
            if dy < 0.0:
                dy = 0.0
        return (dx * dx + dy * dy) ** 0.5

    # ------------------------------------------------------------------
    # Split and merge
    # ------------------------------------------------------------------
    def longer_axis(self) -> SplitAxis:
        """The axis that halves the longer side.

        Ties prefer ``HORIZONTAL`` (cutting the latitude/height dimension),
        matching the paper's "latitude dimension first" split ordering.
        """
        if self.width > self.height:
            return SplitAxis.VERTICAL
        return SplitAxis.HORIZONTAL

    def split(self, axis: SplitAxis) -> Tuple["Rect", "Rect"]:
        """Cut the rectangle in half along ``axis``.

        Returns ``(low, high)``: the southern/western half first.
        """
        if axis is SplitAxis.VERTICAL:
            half = self.width / 2.0
            low = Rect(self.x, self.y, half, self.height)
            high = Rect(self.x + half, self.y, self.width - half, self.height)
        else:
            half = self.height / 2.0
            low = Rect(self.x, self.y, self.width, half)
            high = Rect(self.x, self.y + half, self.width, self.height - half)
        return low, high

    def can_merge_with(self, other: "Rect") -> bool:
        """Whether the union of the two rectangles is again a rectangle.

        Region merging (repair after departures, and load-balance mechanism
        (c)) is only legal for such pairs; merging anything else would break
        the rectangular tiling.
        """
        same_column = (
            abs(self.x - other.x) <= EDGE_TOLERANCE
            and abs(self.width - other.width) <= EDGE_TOLERANCE
        )
        if same_column and (
            abs(self.y2 - other.y) <= EDGE_TOLERANCE
            or abs(other.y2 - self.y) <= EDGE_TOLERANCE
        ):
            return True
        same_row = (
            abs(self.y - other.y) <= EDGE_TOLERANCE
            and abs(self.height - other.height) <= EDGE_TOLERANCE
        )
        return same_row and (
            abs(self.x2 - other.x) <= EDGE_TOLERANCE
            or abs(other.x2 - self.x) <= EDGE_TOLERANCE
        )

    def merge_with(self, other: "Rect") -> "Rect":
        """The union rectangle; raises ``ValueError`` for illegal pairs."""
        if not self.can_merge_with(other):
            raise ValueError(f"cannot merge {self} with {other}: union is not a rectangle")
        x = min(self.x, other.x)
        y = min(self.y, other.y)
        return Rect(x, y, max(self.x2, other.x2) - x, max(self.y2, other.y2) - y)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def sample_interior_point(self, u: float, v: float) -> Point:
        """Map unit-square coordinates ``(u, v)`` to an interior point.

        ``u`` and ``v`` must lie in ``[0, 1)``; the result is strictly
        inside the open west/south edges so that it is covered by this
        region under the paper's half-open rule.
        """
        if not (0.0 <= u < 1.0 and 0.0 <= v < 1.0):
            raise ValueError(f"(u, v) must lie in [0, 1), got ({u!r}, {v!r})")
        return Point(self.x + self.width * (1.0 - u) , self.y + self.height * (1.0 - v))

    def as_tuple(self) -> tuple:
        """Return ``(x, y, width, height)``."""
        return (self.x, self.y, self.width, self.height)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.x:g}, {self.y:g}, {self.width:g}, {self.height:g}>"


# Slot setters, bound once: the constructor runs for every region, split
# and query rectangle, and these skip ``object.__setattr__``'s lookup.
_set_x = Rect.x.__set__  # type: ignore[attr-defined]
_set_y = Rect.y.__set__  # type: ignore[attr-defined]
_set_width = Rect.width.__set__  # type: ignore[attr-defined]
_set_height = Rect.height.__set__  # type: ignore[attr-defined]
_set_x2 = Rect.x2.__set__  # type: ignore[attr-defined]
_set_y2 = Rect.y2.__set__  # type: ignore[attr-defined]
_set_hash = Rect._hash.__set__  # type: ignore[attr-defined]
