"""Least-Waste candidate scoring, Eq. (1)/(2) (repro.core.least_waste)."""

from __future__ import annotations

import pytest

from repro.core.least_waste import (
    CkptCandidate,
    IOCandidate,
    expected_waste,
    select_candidate,
)
from repro.errors import AnalysisError


def test_io_candidate_validation():
    with pytest.raises(AnalysisError):
        IOCandidate(key="a", duration=0.0, nodes=10.0, waited=0.0)
    with pytest.raises(AnalysisError):
        IOCandidate(key="a", duration=1.0, nodes=0.0, waited=0.0)
    with pytest.raises(AnalysisError):
        IOCandidate(key="a", duration=1.0, nodes=1.0, waited=-1.0)


def test_ckpt_candidate_validation():
    with pytest.raises(AnalysisError):
        CkptCandidate(key="a", duration=0.0, nodes=1.0, since_last_checkpoint=0.0, recovery_time=0.0)
    with pytest.raises(AnalysisError):
        CkptCandidate(key="a", duration=1.0, nodes=1.0, since_last_checkpoint=-1.0, recovery_time=0.0)
    with pytest.raises(AnalysisError):
        CkptCandidate(key="a", duration=1.0, nodes=1.0, since_last_checkpoint=0.0, recovery_time=-1.0)


def test_expected_waste_matches_equation_1():
    # Selected: an I/O candidate of duration v; others: one I/O and one
    # checkpoint candidate.  Hand-evaluate Eq. (1).
    mu_ind = 1e6
    selected = IOCandidate(key="io1", duration=100.0, nodes=10.0, waited=5.0)
    other_io = IOCandidate(key="io2", duration=50.0, nodes=20.0, waited=30.0)
    ckpt = CkptCandidate(
        key="ck", duration=80.0, nodes=40.0, since_last_checkpoint=600.0, recovery_time=80.0
    )
    waste = expected_waste(selected, [selected, other_io, ckpt], mu_ind)
    expected_io_term = 20.0 * (30.0 + 100.0)
    expected_ckpt_term = (100.0 / mu_ind) * 40.0**2 * (80.0 + 600.0 + 100.0 / 2.0)
    assert waste == pytest.approx(expected_io_term + expected_ckpt_term)


def test_expected_waste_matches_equation_2():
    # Selected: a checkpoint candidate; the transfer lasts its commit time C.
    mu_ind = 1e6
    selected = CkptCandidate(
        key="ck1", duration=200.0, nodes=10.0, since_last_checkpoint=100.0, recovery_time=200.0
    )
    other_io = IOCandidate(key="io", duration=50.0, nodes=5.0, waited=10.0)
    other_ck = CkptCandidate(
        key="ck2", duration=60.0, nodes=8.0, since_last_checkpoint=400.0, recovery_time=60.0
    )
    waste = expected_waste(selected, [selected, other_io, other_ck], mu_ind)
    expected_value = 5.0 * (10.0 + 200.0) + (200.0 / mu_ind) * 64.0 * (60.0 + 400.0 + 100.0)
    assert waste == pytest.approx(expected_value)


def test_selected_candidate_excluded_from_its_own_waste():
    selected = IOCandidate(key="only", duration=10.0, nodes=4.0, waited=0.0)
    assert expected_waste(selected, [selected], 1e6) == 0.0


def test_select_candidate_prefers_small_transfer_blocking_many_nodes():
    # A short transfer that unblocks a large idle job should win over a long
    # transfer that unblocks a small job.
    mu_ind = 1e7
    short_big = IOCandidate(key="short-big", duration=10.0, nodes=1000.0, waited=100.0)
    long_small = IOCandidate(key="long-small", duration=1000.0, nodes=10.0, waited=100.0)
    best, waste = select_candidate([long_small, short_big], mu_ind)
    assert best is short_big
    assert waste >= 0.0


def test_select_candidate_prefers_io_over_checkpoint_when_failures_rare():
    # With a huge MTBF, delaying a checkpoint costs almost nothing while an
    # idle job wastes real node-seconds.
    mu_ind = 1e12
    idle_io = IOCandidate(key="io", duration=100.0, nodes=50.0, waited=10.0)
    ckpt = CkptCandidate(
        key="ck", duration=100.0, nodes=50.0, since_last_checkpoint=1000.0, recovery_time=100.0
    )
    best, _ = select_candidate([ckpt, idle_io], mu_ind)
    assert best is idle_io


def test_select_candidate_prefers_exposed_checkpoint_when_failures_frequent():
    # With a small MTBF and a hugely exposed checkpoint candidate, serving the
    # other candidates first would risk a lot of lost work.
    mu_ind = 1e4
    ckpt = CkptCandidate(
        key="ck", duration=50.0, nodes=100.0, since_last_checkpoint=50_000.0, recovery_time=50.0
    )
    io = IOCandidate(key="io", duration=50.0, nodes=1.0, waited=1.0)
    best, _ = select_candidate([io, ckpt], mu_ind)
    assert best is ckpt


def test_select_candidate_fcfs_tie_break():
    a = IOCandidate(key="a", duration=10.0, nodes=5.0, waited=3.0)
    b = IOCandidate(key="b", duration=10.0, nodes=5.0, waited=3.0)
    best, _ = select_candidate([a, b], 1e6)
    assert best is a


def test_select_candidate_keeps_fcfs_when_every_score_overflows():
    # duration / mu_ind * nodes**2 * (R + d + duration / 2) = 1e302 * 1e6 * 200
    # overflows to inf for both candidates; the first one is still served.
    a = CkptCandidate(
        key="a", duration=100.0, nodes=1000.0, since_last_checkpoint=50.0, recovery_time=100.0
    )
    b = CkptCandidate(
        key="b", duration=100.0, nodes=1000.0, since_last_checkpoint=50.0, recovery_time=100.0
    )
    best, waste = select_candidate([a, b], 1e-300)
    assert best is a
    assert waste == float("inf")


def test_select_candidate_empty_pool_rejected():
    with pytest.raises(AnalysisError):
        select_candidate([], 1e6)


def test_expected_waste_requires_positive_mtbf():
    candidate = IOCandidate(key="x", duration=1.0, nodes=1.0, waited=0.0)
    with pytest.raises(AnalysisError):
        expected_waste(candidate, [candidate], 0.0)
