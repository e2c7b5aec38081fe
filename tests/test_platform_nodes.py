"""Node pool allocation (repro.platform.nodes)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.platform.nodes import NodePool


def test_initial_state():
    pool = NodePool(8)
    assert pool.num_nodes == 8
    assert pool.num_free == 8
    assert pool.num_allocated == 0
    assert pool.utilization == 0.0


def test_allocate_lowest_numbered_nodes_first():
    pool = NodePool(8)
    owner = object()
    assert pool.allocate(3, owner) == [0, 1, 2]
    assert pool.num_free == 5
    assert pool.utilization == pytest.approx(3 / 8)


def test_owner_tracking_and_release():
    pool = NodePool(8)
    a, b = object(), object()
    nodes_a = pool.allocate(2, a)
    nodes_b = pool.allocate(3, b)
    assert pool.owner_of(nodes_a[0]) is a
    assert pool.owner_of(nodes_b[0]) is b
    assert sorted(pool.nodes_of(b)) == nodes_b
    assert pool.release_owner(a) == nodes_a
    assert pool.owner_of(nodes_a[0]) is None
    assert pool.owner_of(nodes_b[0]) is b
    assert pool.num_free == 8 - 3


def test_release_owner_releases_everything_and_reports_it():
    pool = NodePool(8)
    owner = object()
    nodes = pool.allocate(4, owner)
    released = pool.release_owner(owner)
    assert sorted(released) == nodes
    assert pool.num_free == 8
    # Releasing an owner with no nodes is a no-op.
    assert pool.release_owner(owner) == []


def test_released_nodes_are_reused():
    pool = NodePool(4)
    a, b = object(), object()
    nodes_a = pool.allocate(2, a)
    pool.allocate(2, b)
    pool.release_owner(a)
    assert pool.allocate(2, object()) == nodes_a


def test_cannot_overallocate():
    pool = NodePool(4)
    pool.allocate(3, object())
    assert not pool.can_allocate(2)
    assert pool.can_allocate(1)
    with pytest.raises(SchedulingError):
        pool.allocate(2, object())


def test_invalid_operations_rejected():
    pool = NodePool(4)
    with pytest.raises(SchedulingError):
        pool.allocate(0, object())
    with pytest.raises(SchedulingError):
        pool.owner_of(99)
    with pytest.raises(SchedulingError):
        NodePool(0)


def test_can_allocate_rejects_non_positive_counts():
    pool = NodePool(4)
    assert not pool.can_allocate(0)
    assert not pool.can_allocate(-2)


# ------------------------------------------------------------- pool oracle
class _OraclePool:
    """Naive reference pool: a node -> owner dict, free ids found by sorting.

    The dict keeps allocation order, which is the order ``nodes_of`` reports.
    """

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.owner: dict[int, object] = {}

    def free(self) -> list[int]:
        return sorted(set(range(self.num_nodes)) - set(self.owner))

    def allocate(self, count: int, owner: object) -> list[int]:
        free = self.free()
        if not 0 < count <= len(free):
            raise SchedulingError("refused")
        for node in free[:count]:
            self.owner[node] = owner
        return free[:count]

    def nodes_of(self, owner: object) -> list[int]:
        return [n for n, o in self.owner.items() if o is owner]

    def release_owner(self, owner: object) -> list[int]:
        nodes = self.nodes_of(owner)
        for node in nodes:
            del self.owner[node]
        return nodes


_NUM_NODES = 12
_OWNERS = [object(), object(), object(), ("job",), None]

_OPS = st.one_of(
    st.tuples(st.just("allocate"), st.integers(-1, _NUM_NODES + 1), st.integers(0, 4)),
    st.tuples(st.just("release_owner"), st.integers(0, 4)),
)


def _apply(pool, op: tuple) -> tuple:
    try:
        if op[0] == "allocate":
            return ("ok", pool.allocate(op[1], _OWNERS[op[2]]))
        return ("ok", pool.release_owner(_OWNERS[op[1]]))
    except SchedulingError:
        return ("refused",)


@given(ops=st.lists(_OPS, max_size=50))
@settings(max_examples=200, deadline=None)
def test_node_pool_matches_a_naive_oracle(ops):
    pool, oracle = NodePool(_NUM_NODES), _OraclePool(_NUM_NODES)
    for op in ops:
        assert _apply(pool, op) == _apply(oracle, op), op
        assert pool.num_free == len(oracle.free())
        for node in range(_NUM_NODES):
            assert pool.owner_of(node) is oracle.owner.get(node)
        for owner in _OWNERS:
            assert pool.nodes_of(owner) == oracle.nodes_of(owner)
