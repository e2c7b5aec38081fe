"""Monte-Carlo statistics collection.

* :mod:`repro.stats.summary` — distribution summaries (mean, quartiles and
  deciles) matching the candlestick plots of the paper.
* :mod:`repro.stats.montecarlo` — the per-repetition seeds of a Monte-Carlo
  sample; :class:`repro.exec.ParallelRunner` simulates a configuration over
  them.
"""

from repro.stats.summary import DistributionSummary, summarize

__all__ = ["DistributionSummary", "summarize"]
