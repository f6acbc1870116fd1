"""HostSpeed rescales wall intervals by the kernel times sampled in them."""

import os
import threading
import time

import pytest

from hostspeed import MIN_SAMPLES, REFERENCE_KERNEL_S, HostSpeed


def synthetic(kernel_at) -> HostSpeed:
    """Samples every 0.1 s over [0, 20], kernel time ``kernel_at(t)``."""
    speed = HostSpeed()
    for tick in range(201):
        t = tick / 10
        speed.times.append(t)
        speed.kernels.append(kernel_at(t))
    return speed


def test_a_host_at_half_speed_halves_every_interval():
    speed = synthetic(lambda t: 2 * REFERENCE_KERNEL_S)
    assert speed.seconds(2.0, 12.0) == pytest.approx(5.0)
    assert speed.seconds(3.0, 3.01) == pytest.approx(0.005)


def test_long_intervals_are_rescaled_window_by_window():
    # Reference speed for the first 10 s, half speed after.
    speed = synthetic(lambda t: REFERENCE_KERNEL_S * (1 if t < 10 else 2))
    assert speed.seconds(0.0, 20.0) == pytest.approx(10.0 + 5.0)


def test_short_intervals_take_the_nearest_samples():
    speed = synthetic(lambda t: REFERENCE_KERNEL_S * (1 if t < 10 else 3))
    assert speed.seconds(15.0, 15.001) == pytest.approx(0.001 / 3)
    assert speed.seconds(30.0, 31.0) == pytest.approx(1 / 3)
    assert MIN_SAMPLES > 1


def test_no_samples_is_an_error():
    with pytest.raises(RuntimeError):
        HostSpeed().seconds(0.0, 1.0)


def test_the_sampler_thread_samples_until_the_block_ends():
    speed = HostSpeed()
    before = threading.active_count()
    with speed:
        time.sleep(0.3)
    assert threading.active_count() == before
    assert len(speed.kernels) >= 2
    assert all(k > 0 for k in speed.kernels)
    assert speed.times == sorted(speed.times)


def test_time_another_task_held_the_pinned_cpu_is_cut_out():
    # Pinned to cpu 0: the process ran 0.06 s and the cpu idled 0.01 s
    # of every 0.1 s, so another task held it 30% of the time.
    speed = synthetic(lambda t: REFERENCE_KERNEL_S)
    speed.cpu = 0
    speed.ran = [0.06 * i for i in range(len(speed.times))]
    speed.idle = [0.01 * i for i in range(len(speed.times))]
    assert speed.held(2.0, 12.0) == pytest.approx(0.7)
    assert speed.seconds(2.0, 12.0) == pytest.approx(7.0)


def test_an_unpinned_process_counts_the_whole_interval():
    speed = synthetic(lambda t: REFERENCE_KERNEL_S)
    assert speed.held(2.0, 12.0) == 1.0


def test_the_pinned_sampler_records_cpu_time_and_idle_time():
    speed = HostSpeed(cpu=min(os.sched_getaffinity(0)))
    speed.sample()
    time.sleep(0.1)
    speed.sample()
    assert speed.ran[1] >= speed.ran[0] and speed.idle[1] >= speed.idle[0]
    assert 0 < speed.held(speed.times[0], speed.times[1]) <= 1
