"""Job parameters and progress tracking (repro.apps.job)."""

from __future__ import annotations

import pytest

from repro.apps.job import Job
from repro.errors import SimulationError
from repro.units import HOUR


@pytest.fixture
def job(tiny_classes) -> Job:
    return Job(app_class=tiny_classes[0], total_work_s=2 * HOUR)


def test_job_inherits_class_characteristics(tiny_classes, job):
    alpha = tiny_classes[0]
    assert job.nodes == alpha.nodes
    assert job.input_bytes == alpha.input_bytes
    assert job.output_bytes == alpha.output_bytes
    assert job.checkpoint_bytes == alpha.checkpoint_bytes
    assert alpha.name in job.name
    assert job.end_time is None
    assert not job.is_restart and job.parent_id is None


def test_job_ids_are_unique(tiny_classes):
    a = Job(app_class=tiny_classes[0], total_work_s=10.0)
    b = Job(app_class=tiny_classes[0], total_work_s=10.0)
    assert a.job_id != b.job_id


def test_progress_accumulates_between_begin_and_pause(job):
    job.begin_progress(100.0)
    assert job.progressing
    assert job.work_done_at(160.0) == pytest.approx(60.0)
    delta = job.pause_progress(160.0)
    assert delta == pytest.approx(60.0)
    assert job.work_done_s == pytest.approx(60.0)
    assert not job.progressing
    # Pausing again is a harmless no-op returning 0.
    assert job.pause_progress(200.0) == 0.0


def test_double_begin_progress_rejected(job):
    job.begin_progress(0.0)
    with pytest.raises(SimulationError):
        job.begin_progress(1.0)


def test_negative_progress_interval_rejected(job):
    job.begin_progress(100.0)
    with pytest.raises(SimulationError):
        job.pause_progress(50.0)


def test_work_done_is_capped_at_total(job):
    job.begin_progress(0.0)
    assert job.work_done_at(10 * HOUR) == pytest.approx(job.total_work_s)
    assert job.remaining_work_at(10 * HOUR) == 0.0


def test_protect_work_monotone_and_capped(job):
    job.begin_progress(0.0)
    job.pause_progress(HOUR)
    job.protect_work(HOUR)
    assert job.work_protected_s == pytest.approx(HOUR)
    with pytest.raises(SimulationError):
        job.protect_work(HOUR / 2)
    job.protect_work(100 * HOUR)  # capped at total work
    assert job.work_protected_s == pytest.approx(job.total_work_s)


def test_restart_naming_and_priority(tiny_classes):
    restart = Job(
        app_class=tiny_classes[1],
        total_work_s=HOUR,
        parent_id=7,
        restart_count=2,
        priority=-5.0,
        input_bytes=tiny_classes[1].checkpoint_bytes,
    )
    assert restart.is_restart
    assert "r2" in restart.name
    assert restart.parent_id == 7
    assert restart.input_bytes == tiny_classes[1].checkpoint_bytes


def test_invalid_job_parameters(tiny_classes):
    with pytest.raises(SimulationError):
        Job(app_class=tiny_classes[0], total_work_s=0.0)
    with pytest.raises(SimulationError):
        Job(app_class=tiny_classes[0], total_work_s=10.0, input_bytes=-1.0)
