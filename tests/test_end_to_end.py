"""Property-based end-to-end tests: monitoring is exact on random worlds.

Hypothesis drives small random worlds — random object placements, random
query mixes, random movement scripts — through the server, asserting
after every processed update that each query's monitored result equals
brute-force ground truth.  This is the strongest single statement about
the system: the safe-region machinery never misses a result change.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DatabaseServer, KNNQuery, RangeQuery, ServerConfig
from repro.core.extensions import CircleRangeQuery
from repro.geometry import Point, Rect
from repro.obs import MetricsRegistry

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def worlds(draw):
    n = draw(st.integers(min_value=6, max_value=24))
    positions = {
        i: Point(draw(unit), draw(unit)) for i in range(n)
    }
    queries = []
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        x, y = draw(unit) * 0.8, draw(unit) * 0.8
        size = 0.05 + draw(unit) * 0.3
        queries.append(
            RangeQuery(
                Rect(x, y, min(x + size, 1.0), min(y + size, 1.0)),
                query_id=f"r{i}",
            )
        )
    for i in range(draw(st.integers(min_value=0, max_value=2))):
        queries.append(
            KNNQuery(
                Point(draw(unit), draw(unit)),
                k=draw(st.integers(min_value=1, max_value=3)),
                order_sensitive=draw(st.booleans()),
                query_id=f"k{i}",
            )
        )
    for i in range(draw(st.integers(min_value=0, max_value=1))):
        queries.append(
            CircleRangeQuery(
                Point(draw(unit), draw(unit)),
                radius=0.05 + draw(unit) * 0.2,
                query_id=f"c{i}",
            )
        )
    moves = draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=n - 1), unit, unit),
            min_size=1,
            max_size=40,
        )
    )
    grid_m = draw(st.sampled_from([3, 5, 8]))
    return positions, queries, moves, grid_m


def check_exact(queries, positions):
    for query in queries:
        if isinstance(query, RangeQuery):
            expected = {
                o for o, p in positions.items() if query.rect.contains_point(p)
            }
            assert query.results == expected, query.query_id
        elif isinstance(query, KNNQuery):
            ranked = sorted(
                positions, key=lambda o: query.center.distance_to(positions[o])
            )[: query.k]
            # Distance ties permit any tied subset/order; compare distances.
            got = [query.center.distance_to(positions[o]) for o in query.results]
            want = [query.center.distance_to(positions[o]) for o in ranked]
            if not query.order_sensitive:
                got, want = sorted(got), sorted(want)
                assert len(set(query.results)) == len(query.results), query.query_id
            assert got == pytest.approx(want), query.query_id
        else:  # CircleRangeQuery
            expected = {
                o for o, p in positions.items()
                if query.center.distance_to(p) <= query.radius
            }
            assert query.results == expected, query.query_id


@settings(max_examples=60, deadline=None)
@given(worlds())
def test_monitoring_never_misses_a_change(world):
    positions, queries, moves, grid_m = world
    positions = dict(positions)
    server = DatabaseServer(
        position_oracle=lambda oid: positions[oid],
        config=ServerConfig(grid_m=grid_m),
    )
    server.load_objects(positions.items())
    for query in queries:
        server.register_query(query)
    check_exact(queries, positions)

    t = 0.0
    for oid, x, y in moves:
        t += 0.01
        positions[oid] = Point(x, y)
        if not server.safe_region_of(oid).contains_point(positions[oid]):
            server.handle_location_update(oid, positions[oid], t)
        check_exact(queries, positions)
    server.validate()


@settings(max_examples=25, deadline=None)
@given(worlds(), st.booleans())
def test_enhancements_preserve_exactness(world, use_steadiness):
    positions, queries, moves, grid_m = world
    positions = dict(positions)
    server = DatabaseServer(
        position_oracle=lambda oid: positions[oid],
        config=ServerConfig(
            grid_m=grid_m,
            max_speed=5.0,  # teleport-tolerant bound for arbitrary moves
            steadiness=0.5 if use_steadiness else 0.0,
        ),
    )
    server.load_objects(positions.items())
    for query in queries:
        server.register_query(query)
    t = 0.0
    for oid, x, y in moves:
        t += 1.0  # generous reachability window per step
        positions[oid] = Point(x, y)
        if not server.safe_region_of(oid).contains_point(positions[oid]):
            server.handle_location_update(oid, positions[oid], t)
        check_exact(queries, positions)



# With a distance tie at the k-th place the quarantine radius equals the
# tied distance, so results and non-results sit on the circle, and the
# squared-distance containment test can round either to either side.
# Each scenario runs once report by report and once as a planned batch.
_ORIGIN = Point(0.0, 0.0)
TIED_SCENARIOS = [
    pytest.param(
        [_ORIGIN] * 16, Point(1.0, 0.0), False,
        ServerConfig(grid_m=3, max_speed=5.0), 1, Point(1.0, 0.0),
        id="unordered-non-result-enters-from-the-circle",
    ),
    pytest.param(
        [_ORIGIN, Point(0.25, 0.0), _ORIGIN, _ORIGIN,
         Point(0.0, 1.0), Point(0.0, 1.0)],
        Point(0.015625, 0.34375), True, ServerConfig(grid_m=3),
        0, Point(0.0, 1.0),
        id="ordered-result-leaves-from-the-circle",
    ),
]


@pytest.mark.parametrize(
    "world, center, order_sensitive, config, mover, target", TIED_SCENARIOS
)
@pytest.mark.parametrize("batched", [False, True])
def test_tied_quarantine_boundary_is_exact(
    world, center, order_sensitive, config, mover, target, batched
):
    positions = dict(enumerate(world))
    registry = MetricsRegistry()
    server = DatabaseServer(
        position_oracle=lambda oid: positions[oid], config=config,
        metrics=registry,
    )
    server.load_objects(positions.items())
    queries = [
        RangeQuery(Rect(0.0, 0.0, 0.05, 0.05), query_id="r0"),
        KNNQuery(center, 1, order_sensitive=order_sensitive, query_id="k0"),
    ]
    for query in queries:
        server.register_query(query)
    # A second mover, far from the query, makes the batch plannable.
    bystander = len(world) - 1
    positions[mover] = target
    positions[bystander] = Point(0.9, 0.9)
    reports = [(mover, target), (bystander, positions[bystander])]
    if batched:
        server.handle_location_updates(reports, 1.0)
        counters = registry.to_dict()["counters"]
        assert counters.get("kernels.planner.plans", 0) > 0
    else:
        for oid, p in reports:
            server.handle_location_update(oid, p, 1.0)
    check_exact(queries, positions)
