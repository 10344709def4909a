"""The clock cuts program time into segments and scales each by its kernel times."""

import pytest

import calibrate


class FakeKernel:
    def __init__(self, times):
        self.times = iter(times)

    def seconds(self):
        return next(self.times)


class FakeTime:
    now = 0.0

    def perf_counter(self):
        return self.now


@pytest.fixture
def fake_time(monkeypatch):
    fake = FakeTime()
    monkeypatch.setattr(calibrate, "time", fake)
    return fake


def run_ticks(clock, fake_time):
    for now, force in ((1.0, False), (1.5, False), (3.0, True)):
        fake_time.now = now
        clock.tick(force)


def test_segments_scale_by_the_kernel_times_around_them(fake_time):
    clock = calibrate.Clock(FakeKernel([0.1, 0.3, 0.2]))
    run_ticks(clock, fake_time)
    # the tick at 1.5 came sooner than SEGMENT_S after the one at 1.0
    assert clock.segments == [(1.0, 0.1, 0.3), (2.0, 0.3, 0.2)]
    assert clock.kernel_s == [0.1, 0.3, 0.2]
    assert clock.measured() == (3.0, 1.0)
    ref = calibrate.REFERENCE_S
    wall, setup = clock.scaled()
    assert setup == pytest.approx(1.0 * ref / 0.2)
    assert wall == pytest.approx(1.0 * ref / 0.2 + 2.0 * ref / 0.25)


def test_without_a_kernel_the_clock_only_measures(fake_time):
    clock = calibrate.Clock()
    run_ticks(clock, fake_time)
    assert clock.kernel_s == []
    assert clock.measured() == clock.scaled() == (3.0, 1.0)


def test_kernel_time_is_left_out_of_program_time():
    kernel = calibrate.Kernel()
    clock = calibrate.Clock(kernel)
    clock.tick()
    clock.tick(force=True)
    wall, setup = clock.measured()
    assert len(clock.kernel_s) == 3
    assert 0 <= setup <= wall < min(clock.kernel_s)
