"""Node pool allocation (repro.platform.nodes)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.platform.nodes import NodePool


def owners(pool: NodePool) -> list[object | None]:
    """The owner of every node, by id."""
    return [pool.owner_of(node) for node in range(pool.num_nodes)]


def test_initial_state():
    pool = NodePool(8)
    assert pool.num_nodes == 8
    assert pool.num_free == 8
    assert owners(pool) == [None] * 8


def test_allocate_lowest_numbered_nodes_first():
    pool = NodePool(8)
    owner = object()
    pool.allocate(3, owner)
    assert owners(pool) == [owner] * 3 + [None] * 5
    assert pool.num_free == 5


def test_owner_tracking_and_release():
    pool = NodePool(8)
    a, b = object(), object()
    pool.allocate(2, a)
    pool.allocate(3, b)
    assert owners(pool) == [a, a, b, b, b, None, None, None]
    pool.release_owner(a)
    assert owners(pool) == [None, None, b, b, b, None, None, None]
    assert pool.num_free == 8 - 3


def test_release_owner_releases_everything():
    pool = NodePool(8)
    owner = object()
    pool.allocate(4, owner)
    pool.release_owner(owner)
    assert pool.num_free == 8
    assert owners(pool) == [None] * 8
    # Releasing an owner with no nodes is a no-op.
    pool.release_owner(owner)
    assert pool.num_free == 8


def test_released_nodes_are_reused():
    pool = NodePool(4)
    a, b, c = object(), object(), object()
    pool.allocate(2, a)
    pool.allocate(2, b)
    pool.release_owner(a)
    pool.allocate(2, c)
    assert owners(pool) == [c, c, b, b]


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
    """Naive reference pool: a node -> owner dict, free ids found by sorting."""

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.owner: dict[int, object] = {}

    def free(self) -> list[int]:
        return sorted(set(range(self.num_nodes)) - set(self.owner))

    def allocate(self, count: int, owner: object) -> None:
        free = self.free()
        if not 0 < count <= len(free):
            raise SchedulingError("refused")
        for node in free[:count]:
            self.owner[node] = owner

    def release_owner(self, owner: object) -> None:
        for node in [n for n, o in self.owner.items() if o is owner]:
            del self.owner[node]


_NUM_NODES = 12
_OWNERS = [object(), object(), object(), ("job",), None]

_OPS = st.one_of(
    st.tuples(st.just("allocate"), st.integers(-1, _NUM_NODES + 1), st.integers(0, 4)),
    st.tuples(st.just("release_owner"), st.integers(0, 4)),
)


def _apply(pool, op: tuple) -> str:
    try:
        if op[0] == "allocate":
            pool.allocate(op[1], _OWNERS[op[2]])
        else:
            pool.release_owner(_OWNERS[op[1]])
    except SchedulingError:
        return "refused"
    return "ok"


# The owner of every node after every operation fixes the whole allocation:
# which nodes each owner holds, lowest-numbered first.
@given(ops=st.lists(_OPS, max_size=50))
@settings(max_examples=200, deadline=None)
def test_node_pool_matches_a_naive_oracle(ops):
    pool, oracle = NodePool(_NUM_NODES), _OraclePool(_NUM_NODES)
    for op in ops:
        assert _apply(pool, op) == _apply(oracle, op), op
        assert pool.num_free == len(oracle.free())
        for node in range(_NUM_NODES):
            assert pool.owner_of(node) is oracle.owner.get(node)
