"""Space-shared node pool.

The job scheduler allocates whole nodes to jobs; nodes are never shared
between jobs (only the file system is).  The pool keeps the node → job
mapping so the failure injector can determine which job (if any) a failing
node was running.

Allocation hands out the lowest-numbered free nodes.  The model does not
capture network topology, so the identity of the nodes only matters for
failure targeting; first-fit over node ids is sufficient and deterministic.

The pool keeps exactly the free ids in an ascending list, so allocating the
``q`` lowest is one slice and a release merges the ids back with one sort;
a per-node owner slot answers :meth:`NodePool.owner_of` in O(1), and an
identity-keyed owner → ids map makes :meth:`NodePool.release_owner` cost
the job's nodes, not the platform's.
"""

from __future__ import annotations

from repro.errors import SchedulingError

__all__ = ["NodePool"]

#: Owner slot of a free node (owners may be any object, ``None`` included).
_FREE = object()


class NodePool:
    """Tracks which nodes are free and which job owns each allocated node."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise SchedulingError("num_nodes must be positive")
        self._num_nodes = num_nodes
        self._free: list[int] = list(range(num_nodes))  # ascending
        self._owner: list[object] = [_FREE] * num_nodes
        # id(owner) -> (owner, its ids in allocation order, the order
        # nodes_of reports).  The tuple keeps the owner alive, so its id()
        # is not reused while it owns nodes.
        self._owned: dict[int, tuple[object, list[int]]] = {}

    # ------------------------------------------------------------ queries
    @property
    def num_nodes(self) -> int:
        """Total number of nodes in the pool."""
        return self._num_nodes

    @property
    def num_free(self) -> int:
        """Number of currently unallocated nodes."""
        return len(self._free)

    @property
    def num_allocated(self) -> int:
        """Number of currently allocated nodes."""
        return self._num_nodes - len(self._free)

    @property
    def utilization(self) -> float:
        """Fraction of nodes currently allocated."""
        return self.num_allocated / self._num_nodes

    def owner_of(self, node_id: int) -> object | None:
        """The job owning ``node_id``, or ``None`` if the node is free."""
        self._check_node(node_id)
        owner = self._owner[node_id]
        return None if owner is _FREE else owner

    def nodes_of(self, owner: object) -> list[int]:
        """All node ids currently owned by ``owner`` (possibly empty)."""
        entry = self._owned.get(id(owner))
        return list(entry[1]) if entry is not None else []

    def can_allocate(self, count: int) -> bool:
        """True when ``count`` nodes are currently free."""
        return 0 < count <= self.num_free

    # ------------------------------------------------------------ mutation
    def allocate(self, count: int, owner: object) -> list[int]:
        """Allocate the ``count`` lowest-numbered free nodes to ``owner``.

        Raises
        ------
        SchedulingError
            If fewer than ``count`` nodes are free.
        """
        if count <= 0:
            raise SchedulingError("cannot allocate a non-positive number of nodes")
        if count > self.num_free:
            raise SchedulingError(
                f"cannot allocate {count} nodes: only {self.num_free} free"
            )
        allocated = self._free[:count]
        del self._free[:count]
        slots = self._owner
        for node in allocated:
            slots[node] = owner
        entry = self._owned.get(id(owner))
        if entry is None:
            self._owned[id(owner)] = (owner, list(allocated))
        else:
            entry[1].extend(allocated)
        return allocated

    def release(self, node_ids: list[int]) -> None:
        """Return ``node_ids`` to the free pool.

        Every id is validated before any is freed, so a rejected call
        leaves the pool unchanged.

        Raises
        ------
        SchedulingError
            If an id is outside the pool, already free, or listed twice.
        """
        released: set[int] = set()
        for node in node_ids:
            self._check_node(node)
            if self._owner[node] is _FREE:
                raise SchedulingError(f"node {node} is already free")
            if node in released:
                raise SchedulingError(f"node {node} is listed twice")
            released.add(node)
        owners = dict.fromkeys(id(self._owner[node]) for node in node_ids)
        for node in node_ids:
            self._owner[node] = _FREE
        for key in owners:
            owned = self._owned[key][1]
            owned[:] = [node for node in owned if node not in released]
            if not owned:
                del self._owned[key]
        self._free.extend(node_ids)
        self._free.sort()

    def release_owner(self, owner: object) -> list[int]:
        """Release every node owned by ``owner``; returns the released ids."""
        entry = self._owned.pop(id(owner), None)
        if entry is None:
            return []
        nodes = entry[1]
        slots = self._owner
        for node in nodes:
            slots[node] = _FREE
        self._free.extend(nodes)
        self._free.sort()
        return nodes

    # ------------------------------------------------------------ helpers
    def _check_node(self, node_id: int) -> None:
        if not (0 <= node_id < self._num_nodes):
            raise SchedulingError(
                f"node id {node_id} outside the pool [0, {self._num_nodes})"
            )
