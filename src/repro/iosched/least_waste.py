"""Least-Waste I/O scheduling (§3.5).

Like Ordered-NB, checkpoints are non-blocking and a single transfer is in
flight at a time; but instead of serving requests in arrival order, the
token is granted to the request whose service minimizes the expected waste
inflicted on all the *other* pending requests (Eq. (1) and (2) of the
paper, implemented in :mod:`repro.core.least_waste`).

Blocking requests (input, output, recovery, regular I/O) are *I/O
candidates*: their jobs sit idle, so every second of delay is ``q_j``
node-seconds of deterministic waste.  Checkpoint requests are *checkpoint
candidates*: their jobs keep computing but accumulate failure exposure
proportional to the time since their last protected state.
"""

from __future__ import annotations

from repro.core.least_waste import Candidate, CkptCandidate, IOCandidate, select_candidate
from repro.iosched.base import IORequest, IOScheduler

__all__ = ["LeastWasteScheduler"]


class LeastWasteScheduler(IOScheduler):
    """Cooperative token scheduler minimizing expected platform waste."""

    shares_bandwidth = False
    nonblocking_checkpoints = True

    def _candidate_for(self, request: IORequest, now: float) -> Candidate:
        duration = self.io.duration_alone(request.volume_bytes)
        # Zero-volume requests (possible for synthetic classes with no input)
        # are served "for free"; give them an epsilon duration so the scoring
        # stays well defined and they win immediately.
        duration = max(duration, 1e-9)
        if request.kind.is_checkpoint:
            job = request.job
            last_capture = job.last_capture_time
            if last_capture is None:
                last_capture = request.submitted_at
            recovery = self.io.duration_alone(job.checkpoint_bytes)
            return CkptCandidate(
                key=request,
                duration=duration,
                nodes=float(job.nodes),
                since_last_checkpoint=max(0.0, now - last_capture),
                recovery_time=recovery,
            )
        return IOCandidate(
            key=request,
            duration=duration,
            nodes=float(request.job.nodes),
            waited=request.waiting_for(now),
        )

    def _select_next(self, pending: tuple[IORequest, ...]) -> IORequest:
        now = self.engine.now
        candidates = [self._candidate_for(request, now) for request in pending]
        best, _ = select_candidate(candidates, self.node_mtbf_s)
        selected = best.key
        assert isinstance(selected, IORequest)
        return selected
