"""The coordinator's per-report shortcuts keep every result exact.

Three shortcuts sit on the sharded per-report path: the merge ranks its
pooled kNN rows with a plain ``sorted`` (``rank_rows``) instead of a
kernel dispatch, the fan-out check is skipped while a view's merged
radius stays within the last radius found fully covered (the
``_covered`` memo), and a shard's op stream plans through the tick
planner only when it carries two or more location updates.  These tests
pin each one against the behaviour it replaces.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings, strategies as st

from repro.core import KNNQuery, RangeQuery, ServerConfig
from repro.geometry import Point, Rect
from repro.geometry.circle import Circle
from repro.kernels import Kernels
from repro.kernels.planner import TickPlan
from repro.obs import MetricsRegistry
from repro.sharding import ShardedServer
from repro.sharding.coordinator import rank_rows
from repro.sharding.router import ShardRouter

NP_K = Kernels("numpy", min_rows=1)
PY_K = Kernels("python")

#: A coarse coordinate lattice, so exact distance ties are common.
lattice = st.integers(min_value=-4, max_value=4).map(lambda v: v / 4)
pools = st.lists(st.tuples(lattice, lattice), max_size=40)


class _Oracle(dict):
    def __call__(self, oid):
        return self[oid]


class TestRankRows:
    @settings(max_examples=200)
    @given(pools, lattice, lattice, st.integers(min_value=0, max_value=50))
    def test_equals_top_k_rows(self, rows, qx, qy, k):
        xs = [x for x, _ in rows]
        ys = [y for _, y in rows]
        expected = NP_K.top_k_rows(xs, ys, qx, qy, k)
        assert expected == PY_K.top_k_rows(xs, ys, qx, qy, k)
        assert rank_rows(xs, ys, qx, qy, k) == expected

    @settings(max_examples=100)
    @given(
        st.lists(
            st.tuples(
                st.floats(-1e3, 1e3, allow_nan=False),
                st.floats(-1e3, 1e3, allow_nan=False),
            ),
            max_size=30,
        ),
        st.floats(-1e3, 1e3, allow_nan=False),
        st.floats(-1e3, 1e3, allow_nan=False),
        st.integers(min_value=0, max_value=40),
    )
    def test_equals_top_k_rows_on_arbitrary_floats(self, rows, qx, qy, k):
        xs = [x for x, _ in rows]
        ys = [y for _, y in rows]
        assert rank_rows(xs, ys, qx, qy, k) == NP_K.top_k_rows(
            xs, ys, qx, qy, k
        )

    def test_ties_break_on_row_and_k_caps_at_pool(self):
        xs = [1.0, -1.0, 0.0, 0.0, 0.5]
        ys = [0.0, 0.0, 1.0, -1.0, 0.0]
        assert rank_rows(xs, ys, 0.0, 0.0, 3) == [4, 0, 1]
        assert rank_rows(xs, ys, 0.0, 0.0, 99) == [4, 0, 1, 2, 3]
        assert rank_rows(xs, ys, 0.0, 0.0, 0) == []
        assert rank_rows([], [], 0.0, 0.0, 3) == []


def _needed(cluster, view):
    radius = view.radius if view.radius > 0 else cluster._diameter
    return cluster.router.shards_for_circle(
        Circle(view.center, radius), cluster.dead_shards()
    )


def _growth_cluster():
    """Six shards and a k=1 view whose nearest object sits at the centre."""
    rng = random.Random(0)
    world = _Oracle(
        {f"o{i}": Point(rng.random(), rng.random()) for i in range(30)}
    )
    world["near"] = Point(0.51, 0.5)
    cluster = ShardedServer(world, ServerConfig(grid_m=16), n_shards=6)
    cluster.load_objects(sorted(world.items()))
    view = KNNQuery(Point(0.5, 0.5), 1, query_id="k")
    cluster.register_query(view)
    return cluster, world, view


class TestFanOutMemo:
    def test_radius_growth_past_the_memo_registers_new_holders(self):
        cluster, world, view = _growth_cluster()
        world["near"] = Point(0.505, 0.5)
        cluster.handle_location_update("near", world["near"], 1.0)
        memo = cluster._covered["k"]
        assert memo == view.radius
        holders = set(cluster.holders_of("k"))

        # The nearest object leaves: the k-th bound jumps far past the
        # memoised radius and reaches shards that never held the view.
        world["near"] = Point(0.98, 0.02)
        cluster.handle_location_update("near", world["near"], 2.0)
        assert view.radius > memo
        needed = _needed(cluster, view)
        assert needed - holders, "scenario no longer grows the fan-out"
        assert needed <= cluster.holders_of("k")
        nearest = min(
            world, key=lambda oid: (
                math.dist((world[oid].x, world[oid].y), (0.5, 0.5)), oid
            ),
        )
        assert view.results == [nearest]

    def test_memo_skips_the_check_while_covered(self, monkeypatch):
        cluster, world, view = _growth_cluster()
        world["near"] = Point(0.505, 0.5)
        cluster.handle_location_update("near", world["near"], 1.0)
        assert "k" in cluster._covered
        calls = []
        original = ShardRouter.shards_for_circle
        monkeypatch.setattr(
            ShardRouter, "shards_for_circle",
            lambda *a: calls.append(a) or original(*a),
        )
        world["near"] = Point(0.506, 0.5)
        cluster.handle_location_update("near", world["near"], 2.0)
        assert view.radius <= cluster._covered["k"]
        assert calls == []

    def _poisoned(self):
        """A cluster whose every kNN view claims coverage out to infinity.

        Each k=1 view has an object next to its centre, so its radius
        stays within a few cells and a topology change can leave its
        holders untouched: then only an explicit drop clears the claim.
        """
        rng = random.Random(0)
        world = _Oracle(
            {f"o{i}": Point(rng.random(), rng.random()) for i in range(60)}
        )
        centres = [(0.2, 0.3), (0.7, 0.6), (0.5, 0.9)]
        for i, (x, y) in enumerate(centres):
            world[f"c{i}"] = Point(x + 0.001, y)
        cluster = ShardedServer(world, ServerConfig(grid_m=16), n_shards=4)
        cluster.load_objects(sorted(world.items()))
        for i, (x, y) in enumerate(centres):
            cluster.register_query(KNNQuery(Point(x, y), 1, query_id=f"k{i}"))
        cluster.register_query(
            RangeQuery(Rect(0.1, 0.1, 0.4, 0.4), query_id="r0")
        )
        for qid in ("k0", "k1", "k2"):
            cluster._covered[qid] = math.inf
        return cluster

    def _assert_dropped(self, cluster):
        for qid in ("k0", "k1", "k2"):
            assert cluster._covered.get(qid) != math.inf
            view = cluster._views[qid]
            assert _needed(cluster, view) <= cluster.holders_of(qid)

    def test_kill_shard_drops_the_memo(self):
        cluster = self._poisoned()
        cluster.kill_shard(1, time=1.0)
        self._assert_dropped(cluster)

    def test_add_shard_drops_the_memo(self):
        cluster = self._poisoned()
        before = {q: cluster.holders_of(q) for q in ("k0", "k1", "k2")}
        cluster.add_shard(time=1.0)
        # A view that gained no holder saw no registration, so nothing
        # but the topology change itself may drop its claim.
        assert any(cluster.holders_of(q) == h for q, h in before.items())
        self._assert_dropped(cluster)

    def test_remove_shard_drops_the_memo(self):
        cluster = self._poisoned()
        cluster.remove_shard(0, time=1.0)
        self._assert_dropped(cluster)

    def test_deregister_drops_the_view_memo(self):
        cluster = self._poisoned()
        cluster.deregister_query(cluster._views["k0"])
        assert "k0" not in cluster._covered


def _planner_cluster():
    rng = random.Random(11)
    world = _Oracle(
        {f"o{i}": Point(rng.random(), rng.random()) for i in range(120)}
    )
    registry = MetricsRegistry()
    cluster = ShardedServer(
        world, ServerConfig(grid_m=10, max_speed=0.04), n_shards=3,
        metrics=registry,
    )
    cluster.load_objects(sorted(world.items()))
    for i in range(6):
        cluster.register_query(
            KNNQuery(Point(rng.random(), rng.random()), 3, query_id=f"k{i}")
        )
    return cluster, world, rng


def _moves(world, rng, n):
    batch = []
    for oid in rng.sample(sorted(world), n):
        p = world[oid]
        q = Point(
            min(max(p.x + rng.gauss(0, 0.03), 0.0), 1.0),
            min(max(p.y + rng.gauss(0, 0.03), 0.0), 1.0),
        )
        world[oid] = q
        batch.append((oid, q))
    return batch


def _plans(cluster):
    return sum(
        snapshot["counters"].get("kernels.planner.plans", 0)
        for snapshot in cluster.shard_metrics_snapshots().values()
    )


class TestShardPlanning:
    def test_single_reports_never_plan(self):
        cluster, world, rng = _planner_cluster()
        for t in range(1, 6):
            for oid, p in _moves(world, rng, 20):
                cluster.handle_location_update(oid, p, float(t))
        assert _plans(cluster) == 0

    def test_multi_report_batches_plan_and_consume(self, monkeypatch):
        # Plan entries validate on ``Point`` identity, so the shard must
        # hand the planned point itself to the per-op call for any entry
        # to be consumed.
        taken = []
        original = TickPlan.take_affected

        def spy(self, oid, position, previous, grid):
            entry = original(self, oid, position, previous, grid)
            taken.append(entry is not None)
            return entry

        monkeypatch.setattr(TickPlan, "take_affected", spy)
        cluster, world, rng = _planner_cluster()
        for t in range(1, 6):
            cluster.handle_location_updates(_moves(world, rng, 40), float(t))
        assert _plans(cluster) > 0
        assert any(taken)
