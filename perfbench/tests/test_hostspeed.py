"""The host-speed probe: its scaling and what it takes out of a wall time.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import signal
import time

import pytest

import hostspeed


class SleepTask:
    """Stands in for the reference task: two pieces of 10 ms wall time."""

    reference_ms = {"a": 10.0, "b": 10.0}

    def __init__(self):
        self.pieces = {"a": self.sleep, "b": self.sleep}

    def sleep(self):
        time.sleep(0.01)


def _sample(start, seconds, **times):
    return hostspeed.Sample(start, start + seconds, times)


def test_slowdown_is_the_geometric_mean_of_median_piece_slowdowns():
    samples = [_sample(0, 0, a=0.020, b=0.010), _sample(0, 0, a=0.040, b=0.050), _sample(0, 0, a=0.020, b=0.050)]
    # medians 20 ms and 50 ms against 10 ms each: sqrt(2 * 5)
    assert hostspeed.slowdown(samples, {"a": 10.0, "b": 10.0}) == pytest.approx(10**0.5)
    assert hostspeed.slowdown(samples, {"b": 10.0}) == pytest.approx(5.0)


def test_reference_seconds_scale_each_stretch_by_the_probes_around_it():
    # probe before the region at host speed, then two probes at half speed;
    # the program runs 1 s before, between and after them
    region = [_sample(-0.01, 0.01, a=0.01), _sample(1.0, 0.02, a=0.02), _sample(2.02, 0.02, a=0.02)]
    reference = {"a": 10.0}
    assert hostspeed.reference_seconds(0.0, 3.04, region, reference, window=0) == pytest.approx(1.0 + 0.5 + 0.5)
    # with the window over all three probes every stretch uses the median, 20 ms
    assert hostspeed.reference_seconds(0.0, 3.04, region, reference, window=2) == pytest.approx(1.5)


def test_reference_pieces_are_deterministic_and_all_have_a_reference():
    task, again = hostspeed.ReferenceTask(), hostspeed.ReferenceTask()
    assert set(task.pieces) == set(task.reference_ms)
    for name, piece in task.pieces.items():
        assert piece() == again.pieces[name]()


def test_measure_takes_the_probes_out_of_the_wall_time():
    probe = hostspeed.Probe(period_s=0.05, task=SleepTask())
    before = signal.getsignal(signal.SIGALRM)

    def region():
        # short sleeps: a probe that interrupts one delays the region by
        # its own 20 ms, which measure must take out again
        for _ in range(300):
            time.sleep(0.001)
        return "done"

    took, reference_s, result = probe.measure(region)
    assert result == "done"
    # one probe before the region and one per period inside it
    assert len(probe.samples) >= 4
    assert all(t == pytest.approx(0.01, abs=0.008) for s in probe.samples for t in s.times.values())
    assert 0.29 <= took <= 0.3 + 0.1
    # the sleeping pieces run at their reference speed
    assert reference_s == pytest.approx(took, rel=0.3)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_measure_restores_the_handler_when_the_region_raises():
    probe = hostspeed.Probe(period_s=0.05, task=SleepTask())
    before = signal.getsignal(signal.SIGALRM)

    def fail():
        time.sleep(0.1)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        probe.measure(fail)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
