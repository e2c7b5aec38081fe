"""Named, reproducible random streams.

Monte-Carlo experiments need independent random streams for independent
model concerns (workload generation, failure times, failure locations, ...)
so that, e.g., changing how many failures are drawn does not perturb the job
mix.  :class:`RandomStreams` derives one :class:`numpy.random.Generator` per
named stream from a single root seed using ``numpy``'s ``SeedSequence``
spawning, which guarantees independence and reproducibility.

numpy is imported by the methods, not by the module: the simulator is
imported by every campaign command, but only one that simulates a seed
creates a family and so loads numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["RandomStreams"]


class RandomStreams:
    """A family of independent random generators derived from one seed.

    A simulation creates one family from its configuration's seed and reads
    its streams through :meth:`get`, the family's only method.  Streams are
    created lazily on first access and cached, so two accesses to the same
    name return the same generator object.  The mapping from (seed, name)
    to a stream is stable across runs and across access order.

    Examples
    --------
    >>> streams = RandomStreams(seed=42)
    >>> a = streams.get("failures")
    >>> b = streams.get("workload")
    >>> a is streams.get("failures")
    True
    """

    def __init__(self, seed: int | None = None) -> None:
        import numpy as np

        self._root = np.random.SeedSequence(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically."""
        if name not in self._streams:
            import numpy as np

            # Derive a child SeedSequence from the root and the stream name so
            # the stream does not depend on the order streams are requested.
            digest = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
            child = np.random.SeedSequence(
                entropy=self._root.entropy if self._root.entropy is not None else 0,
                spawn_key=tuple(int(x) for x in digest),
            )
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]
