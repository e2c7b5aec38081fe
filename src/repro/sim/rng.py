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

    Streams are created lazily on first access and cached, so two accesses
    to the same name return the same generator object.  The mapping from
    (seed, name) to a stream is stable across runs and across access order.

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

        self._seed = seed
        self._root = np.random.SeedSequence(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int | None:
        """The root seed this family was created with."""
        return self._seed

    @property
    def entropy(self) -> int:
        """The resolved root entropy (equals ``seed`` when one was given).

        When the family was created with ``seed=None`` this is the entropy
        ``SeedSequence`` gathered from the OS, so the randomness actually
        used is always recoverable.
        """
        entropy = self._root.entropy
        return int(entropy) if entropy is not None else 0

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

    def spawn(self, index: int) -> "RandomStreams":
        """Derive an independent child family, e.g. one per Monte-Carlo run."""
        import numpy as np

        entropy = self._root.entropy if self._root.entropy is not None else 0
        child_seed_seq = np.random.SeedSequence(entropy=entropy, spawn_key=(0xC0FFEE, index))
        # Collapse the child sequence to a plain integer seed so the child is
        # itself a RandomStreams rooted at a reproducible value.
        child_seed = int(child_seed_seq.generate_state(1, dtype=np.uint64)[0])
        return RandomStreams(seed=child_seed)
