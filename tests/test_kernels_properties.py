"""Property-based cross-checks for the columnar kernels (repro.kernels).

Every kernel runs twice — once on the NumPy batch path (forced via
``min_rows=1``) and once on the pure-Python scalar path — and the outputs
must be *exactly* equal: same booleans, same float bit patterns, same
selected rows.  The strategies deliberately include the nasty inputs the
equivalence guarantee hinges on: points lying exactly on rectangle edges,
duplicated points producing exact distance ties, and degenerate
(zero-area) rectangles.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import KNNQuery
from repro.geometry import Point, Rect
from repro.kernels import HAS_NUMPY, Kernels, PositionStore, resolve_backend

pytestmark = pytest.mark.skipif(
    not HAS_NUMPY, reason="backend cross-check needs NumPy"
)

#: NumPy path with the batch cutoff disabled so every call vectorises.
NP_K = Kernels("numpy", min_rows=1)
PY_K = Kernels("python")

coord = st.floats(min_value=-2.0, max_value=3.0, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coord), draw(coord)))
    y1, y2 = sorted((draw(coord), draw(coord)))
    return Rect(x1, y1, x2, y2)


@st.composite
def point_columns(draw, min_size=1, max_size=40):
    points = draw(
        st.lists(st.tuples(coord, coord), min_size=min_size, max_size=max_size)
    )
    return [p[0] for p in points], [p[1] for p in points]


@st.composite
def rect_columns(draw, min_size=1, max_size=20):
    rs = draw(st.lists(rects(), min_size=min_size, max_size=max_size))
    return (
        [r.min_x for r in rs],
        [r.min_y for r in rs],
        [r.max_x for r in rs],
        [r.max_y for r in rs],
    )


def _with_boundary_points(xs, ys, rect):
    """Append the rect's corners and edge midpoints to the columns."""
    mx = (rect.min_x + rect.max_x) / 2.0
    my = (rect.min_y + rect.max_y) / 2.0
    extra = [
        (rect.min_x, rect.min_y), (rect.max_x, rect.max_y),
        (rect.min_x, rect.max_y), (rect.max_x, rect.min_y),
        (mx, rect.min_y), (mx, rect.max_y),
        (rect.min_x, my), (rect.max_x, my),
    ]
    return xs + [e[0] for e in extra], ys + [e[1] for e in extra]


class TestPointKernels:
    @settings(max_examples=120)
    @given(point_columns(), rects())
    def test_points_in_rect_backends_agree(self, columns, rect):
        xs, ys = _with_boundary_points(*columns, rect)
        assert NP_K.points_in_rect(xs, ys, rect) == PY_K.points_in_rect(xs, ys, rect)

    @settings(max_examples=120)
    @given(point_columns(), rects())
    def test_boundary_points_count_as_inside(self, columns, rect):
        xs, ys = _with_boundary_points(*columns, rect)
        mask = NP_K.points_in_rect(xs, ys, rect)
        # The eight appended rows sit exactly on the closed boundary.
        assert all(mask[-8:])

    @settings(max_examples=120)
    @given(point_columns(), coord, coord)
    def test_squared_dists_bit_identical(self, columns, qx, qy):
        xs, ys = columns
        a = NP_K.squared_dists(xs, ys, qx, qy)
        b = PY_K.squared_dists(xs, ys, qx, qy)
        assert a == b
        assert all(type(v) is float for v in a)

    @settings(max_examples=120)
    @given(point_columns(), coord, coord, st.integers(min_value=0, max_value=50))
    def test_top_k_backends_agree(self, columns, qx, qy, k):
        xs, ys = columns
        assert NP_K.top_k_rows(xs, ys, qx, qy, k) == PY_K.top_k_rows(xs, ys, qx, qy, k)

    @settings(max_examples=120)
    @given(point_columns(max_size=15), coord, coord, st.integers(min_value=1, max_value=20))
    def test_top_k_ties_break_by_row(self, columns, qx, qy, k):
        # Duplicate every point once: exact distance ties everywhere.
        xs, ys = columns
        xs, ys = xs + xs, ys + ys
        top = NP_K.top_k_rows(xs, ys, qx, qy, k)
        assert top == PY_K.top_k_rows(xs, ys, qx, qy, k)
        d2 = PY_K.squared_dists(xs, ys, qx, qy)
        keys = [(d2[row], row) for row in top]
        assert keys == sorted(keys)  # ordered by (d2, row)
        assert keys == sorted((d, i) for i, d in enumerate(d2))[: len(top)]

    def test_top_k_known_tie_case(self):
        xs, ys = [0.0, 1.0, -1.0, 1.0, 0.5], [1.0, 0.0, 0.0, 0.0, 0.5]
        # d2 from origin: 1, 1, 1, 1, 0.5 — row 4 first, then ties by row.
        for k in (NP_K, PY_K):
            assert k.top_k_rows(xs, ys, 0.0, 0.0, 3) == [4, 0, 1]
            assert k.top_k_rows(xs, ys, 0.0, 0.0, 99) == [4, 0, 1, 2, 3]
            assert k.top_k_rows(xs, ys, 0.0, 0.0, 0) == []
            assert k.top_k_rows([], [], 0.0, 0.0, 3) == []

    @settings(max_examples=120)
    @given(
        point_columns(),
        st.integers(min_value=1, max_value=30),
    )
    def test_cells_of_backends_agree(self, columns, m):
        xs, ys = columns
        cell_w = 1.0 / m
        cell_h = 1.0 / m
        a = NP_K.cells_of(xs, ys, 0.0, 0.0, cell_w, cell_h, m)
        assert a == PY_K.cells_of(xs, ys, 0.0, 0.0, cell_w, cell_h, m)
        assert all(0 <= i < m and 0 <= j < m for i, j in a)


class TestRectKernels:
    @settings(max_examples=120)
    @given(rect_columns(), rects())
    def test_intersecting_and_contained_agree(self, columns, rect):
        assert NP_K.rects_intersecting(*columns, rect) == \
            PY_K.rects_intersecting(*columns, rect)
        assert NP_K.rects_contained_in(*columns, rect) == \
            PY_K.rects_contained_in(*columns, rect)

    @settings(max_examples=120)
    @given(rect_columns(), st.tuples(coord, coord),
           st.none() | st.tuples(coord, coord))
    def test_range_affected_agrees(self, columns, p, p_lst):
        point = Point(*p)
        previous = None if p_lst is None else Point(*p_lst)
        assert NP_K.range_affected(*columns, point, previous) == \
            PY_K.range_affected(*columns, point, previous)

    @settings(max_examples=200)
    @given(rect_columns(max_size=12), rects())
    def test_min_overlap_child_agrees(self, columns, rect):
        assert NP_K.min_overlap_child(*columns, rect) == \
            PY_K.min_overlap_child(*columns, rect)

    def test_min_overlap_child_rejects_empty(self):
        for k in (NP_K, PY_K):
            with pytest.raises(ValueError):
                k.min_overlap_child([], [], [], [], Rect(0, 0, 1, 1))

    @settings(max_examples=120)
    @given(
        rect_columns(),
        st.tuples(unit, unit),
        st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]),
        st.tuples(unit, unit),
    )
    def test_quadrant_corners_agree(self, columns, p, signs, size):
        px, py = p
        sx, sy = signs
        width, height = 0.05 + size[0], 0.05 + size[1]
        assert NP_K.quadrant_corners(px, py, *columns, sx, sy, width, height) == \
            PY_K.quadrant_corners(px, py, *columns, sx, sy, width, height)

    @settings(max_examples=150)
    @given(st.data())
    def test_knn_gate_rows_agree_with_is_affected_by(self, data):
        # Lattice points, radii measured to lattice points: old positions
        # land exactly on circles, where the boundary mask matters.
        lattice = st.integers(-4, 4).map(lambda v: v / 4)
        pairs = data.draw(st.lists(
            st.tuples(lattice, lattice, lattice, lattice),
            min_size=1, max_size=5,
        ))
        seg_lens, cxs, cys, rads = [], [], [], []
        for _ in pairs:
            circles = data.draw(st.lists(
                st.tuples(lattice, lattice, lattice, lattice), max_size=4,
            ))
            seg_lens.append(len(circles))
            for cx, cy, ex, ey in circles:
                cxs.append(cx)
                cys.append(cy)
                rads.append(Point(cx, cy).distance_to(Point(ex, ey)))
        columns = (
            cxs, cys, rads, seg_lens,
            [p[0] for p in pairs], [p[1] for p in pairs],
            [p[2] for p in pairs], [p[3] for p in pairs],
        )
        gates = NP_K.knn_gate_rows(*columns)
        assert gates == PY_K.knn_gate_rows(*columns)
        in_new, in_old, on_old = gates
        row = 0
        for (nx, ny, ox, oy), seg in zip(pairs, seg_lens):
            for _ in range(seg):
                for ordered in (True, False):
                    q = KNNQuery(
                        Point(cxs[row], cys[row]), 1, order_sensitive=ordered
                    )
                    q.radius = rads[row]
                    if on_old[row]:
                        hit = True
                    elif ordered:
                        hit = in_new[row] or in_old[row]
                    else:
                        hit = in_new[row] != in_old[row]
                    assert hit == q.is_affected_by(
                        Point(nx, ny), Point(ox, oy)
                    )
                row += 1

    @settings(max_examples=120)
    @given(st.lists(coord, min_size=1, max_size=40), coord)
    def test_mask_leq_agrees(self, values, bound):
        assert NP_K.mask_leq(values, bound) == PY_K.mask_leq(values, bound)


class TestBackendPlumbing:
    def test_resolve_backend_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_backend("cuda")

    def test_min_rows_cutoff_falls_back(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        kernels = Kernels("numpy", metrics=registry, min_rows=8)
        kernels.mask_leq([1.0, 2.0], 1.5)          # 2 rows < cutoff
        kernels.mask_leq([0.0] * 8, 1.0)           # 8 rows >= cutoff
        counters = registry.to_dict()["counters"]
        assert counters["kernels.fallback_calls"] == 1
        assert counters["kernels.batch_calls"] == 1
        assert counters["kernels.rows_scanned"] == 8

    def test_python_backend_only_counts_fallbacks(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        kernels = Kernels("python", metrics=registry)
        kernels.mask_leq([0.0] * 32, 1.0)
        counters = registry.to_dict()["counters"]
        assert counters["kernels.fallback_calls"] == 1
        assert counters.get("kernels.batch_calls", 0) == 0

    @pytest.mark.parametrize("min_rows", [1, 2, 8, 17])
    def test_min_rows_exact_cutoff_vectorises(self, min_rows):
        """The cutoff is inclusive: exactly ``min_rows`` rows vectorise.

        Pins the comparison in ``Kernels._batch`` (``n >= min_rows``) on
        both sides of the boundary, with the per-call row counters —
        ``n == min_rows`` must batch, ``n == min_rows - 1`` must fall
        back, and the results must be identical either way.
        """
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        kernels = Kernels("numpy", metrics=registry, min_rows=min_rows)
        at = [float(i) for i in range(min_rows)]
        assert kernels.mask_leq(at, float(min_rows)) == PY_K.mask_leq(
            at, float(min_rows)
        )
        counters = registry.to_dict()["counters"]
        assert counters["kernels.batch_calls"] == 1
        assert counters["kernels.rows_scanned"] == min_rows
        assert counters.get("kernels.fallback_calls", 0) == 0
        assert counters.get("kernels.fallback_rows", 0) == 0

        if min_rows > 1:
            below = at[:-1]
            assert kernels.mask_leq(below, 1.0) == PY_K.mask_leq(below, 1.0)
            counters = registry.to_dict()["counters"]
            assert counters["kernels.batch_calls"] == 1  # unchanged
            assert counters["kernels.fallback_calls"] == 1
            assert counters["kernels.fallback_rows"] == min_rows - 1

    def test_fallback_rows_accumulate_per_call(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        kernels = Kernels("numpy", metrics=registry, min_rows=8)
        for n in (2, 3):  # two scalar calls, 5 rows total
            kernels.mask_leq([0.0] * n, 1.0)
        kernels.mask_leq([0.0] * 9, 1.0)  # one vectorised call
        counters = registry.to_dict()["counters"]
        assert counters["kernels.fallback_calls"] == 2
        assert counters["kernels.fallback_rows"] == 5
        assert counters["kernels.rows_scanned"] == 9


class TestPositionStore:
    def test_set_move_discard_swap_remove(self):
        store = PositionStore()
        for i in range(5):
            store.set(f"o{i}", Point(i * 0.125, i * 0.25))
        assert len(store) == 5
        assert store.get("o3") == (0.375, 0.75)

        store.set("o3", Point(0.9, 0.9))           # move in place
        assert store.get("o3") == (0.9, 0.9)
        assert len(store) == 5

        store.discard("o1")                        # swap-remove
        assert len(store) == 4
        assert store.get("o1") is None
        assert "o1" not in store
        store.discard("o1")                        # idempotent
        assert len(store) == 4

        # Columns stay aligned with ids after the swap.
        xs, ys = store.columns()
        by_id = dict(zip(store.ids, zip(list(xs), list(ys))))
        for oid in ("o0", "o2", "o4"):
            assert by_id[oid] == store.get(oid)
        assert by_id["o3"] == (0.9, 0.9)

    @settings(max_examples=80)
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=9),
                  st.booleans(), unit, unit),
        max_size=60,
    ))
    def test_store_matches_dict_model(self, ops):
        store = PositionStore()
        model = {}
        for oid, insert, x, y in ops:
            if insert:
                store.set(oid, Point(x, y))
                model[oid] = (x, y)
            else:
                store.discard(oid)
                model.pop(oid, None)
        assert len(store) == len(model)
        assert set(store.ids) == set(model)
        assert sorted(store) == sorted(model)
        for oid, expected in model.items():
            assert store.get(oid) == expected
        xs, ys = store.columns()
        assert dict(zip(store.ids, zip(list(xs), list(ys)))) == model
        assert store.approximate_size_bytes() >= 96 * len(model)
