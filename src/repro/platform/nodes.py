"""Space-shared node pool.

The job scheduler allocates whole nodes to jobs; nodes are never shared
between jobs (only the file system is).  The pool keeps the node → job
mapping so the failure injector can determine which job (if any) a failing
node was running.

Allocation hands out the lowest-numbered free nodes.  The model does not
capture network topology, so the identity of the nodes only matters for
failure targeting; first-fit over node ids is sufficient and deterministic.

The pool stores nodes as *runs* of consecutive ids ``[start, end)``, never
one entry per node: the free runs in one ascending list (adjacent free runs
are merged), the allocated runs in another, each with its owner, and an
identity-keyed owner → runs map.  It never lists node ids: a caller learns
who owns a node from :meth:`NodePool.owner_of`.  With ``r`` runs in the
pool, a call costs:

* :meth:`NodePool.allocate` — O(r) for the free runs it takes and the
  ``bisect`` insertions of its runs;
* :meth:`NodePool.release_owner` — O(r) per run of the owner;
* :meth:`NodePool.owner_of` — one ``bisect`` over the allocated runs.

Nodes go back to the pool only through :meth:`NodePool.release_owner`, one
whole allocated run at a time, so an allocated run is never split.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.errors import SchedulingError

__all__ = ["NodePool"]


class NodePool:
    """Tracks which nodes are free and which job owns each allocated node."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise SchedulingError("num_nodes must be positive")
        self._num_nodes = num_nodes
        self._num_free = num_nodes
        # Free runs [start, end): ascending, disjoint, never adjacent.
        self._free_starts = [0]
        self._free_ends = [num_nodes]
        # Allocated runs, ascending by start, with the owner of each.
        self._run_starts: list[int] = []
        self._run_ends: list[int] = []
        self._run_owners: list[object] = []
        # id(owner) -> (owner, its runs).  The tuple keeps the owner alive,
        # so its id() is not reused while it owns nodes.
        self._owned: dict[int, tuple[object, list[tuple[int, int]]]] = {}

    # ------------------------------------------------------------ queries
    @property
    def num_nodes(self) -> int:
        """Total number of nodes in the pool."""
        return self._num_nodes

    @property
    def num_free(self) -> int:
        """Number of currently unallocated nodes."""
        return self._num_free

    def owner_of(self, node_id: int) -> object | None:
        """The job owning ``node_id``, or ``None`` if the node is free."""
        self._check_node(node_id)
        index = bisect_right(self._run_starts, node_id) - 1
        return self._run_owners[index] if index >= 0 and node_id < self._run_ends[index] else None

    def can_allocate(self, count: int) -> bool:
        """True when ``count`` nodes are currently free."""
        return 0 < count <= self._num_free

    # ------------------------------------------------------------ mutation
    def allocate(self, count: int, owner: object) -> None:
        """Allocate the ``count`` lowest-numbered free nodes to ``owner``.

        Raises
        ------
        SchedulingError
            If fewer than ``count`` nodes are free.
        """
        if count <= 0:
            raise SchedulingError("cannot allocate a non-positive number of nodes")
        if count > self._num_free:
            raise SchedulingError(
                f"cannot allocate {count} nodes: only {self._num_free} free"
            )
        starts, ends = self._free_starts, self._free_ends
        runs: list[tuple[int, int]] = []
        need = count
        taken = 0
        while need:
            start, end = starts[taken], ends[taken]
            if end - start > need:
                end = start + need
                starts[taken] = end
            else:
                taken += 1
            runs.append((start, end))
            need -= end - start
        del starts[:taken], ends[:taken]
        run_starts = self._run_starts
        for start, end in runs:
            index = bisect_left(run_starts, start)
            run_starts.insert(index, start)
            self._run_ends.insert(index, end)
            self._run_owners.insert(index, owner)
        entry = self._owned.get(id(owner))
        if entry is None:
            self._owned[id(owner)] = (owner, runs)
        else:
            entry[1].extend(runs)
        self._num_free -= count

    def release_owner(self, owner: object) -> None:
        """Release every node owned by ``owner`` (none: a no-op)."""
        entry = self._owned.pop(id(owner), None)
        if entry is not None:
            for start, end in entry[1]:
                self._free(start, end)

    # ------------------------------------------------------------ helpers
    def _check_node(self, node_id: int) -> None:
        if not (0 <= node_id < self._num_nodes):
            raise SchedulingError(
                f"node id {node_id} outside the pool [0, {self._num_nodes})"
            )

    def _free(self, start: int, end: int) -> None:
        """Free the allocated run ``[start, end)``."""
        index = bisect_left(self._run_starts, start)
        del self._run_starts[index], self._run_ends[index], self._run_owners[index]
        self._num_free += end - start
        # Merge [start, end) into the free runs.
        starts, ends = self._free_starts, self._free_ends
        index = bisect_left(starts, start)
        joins_previous = index > 0 and ends[index - 1] == start
        joins_next = index < len(starts) and starts[index] == end
        if joins_previous and joins_next:
            ends[index - 1] = ends[index]
            del starts[index], ends[index]
        elif joins_previous:
            ends[index - 1] = end
        elif joins_next:
            starts[index] = start
        else:
            starts.insert(index, start)
            ends.insert(index, end)
