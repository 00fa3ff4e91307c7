"""Tests for the HDD and SSD device models."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.devices import HDD, SSD, DeviceError
from repro.units import MB, PAGE_SIZE


def test_device_rejects_zero_capacity():
    with pytest.raises(ValueError):
        HDD(capacity_blocks=0)


def test_request_bounds_checked():
    disk = HDD(capacity_blocks=100)
    with pytest.raises(DeviceError):
        disk.service_time("read", 99, 2)
    with pytest.raises(DeviceError):
        disk.service_time("read", -1, 1)
    with pytest.raises(DeviceError):
        disk.service_time("read", 0, 0)


def test_bounds_rejection_leaves_accounting_untouched():
    """A rejected request must not mutate counters or head position."""
    disk = HDD(capacity_blocks=100)
    disk.service_time("read", 0, 4)
    before = (disk.stats.reads, disk.stats.writes, disk.stats.bytes_read,
              disk.stats.bytes_written, disk.stats.busy_time, disk._last_block_end)
    with pytest.raises(DeviceError):
        disk.service_time("write", 99, 8)
    after = (disk.stats.reads, disk.stats.writes, disk.stats.bytes_read,
             disk.stats.bytes_written, disk.stats.busy_time, disk._last_block_end)
    assert before == after
    assert not DeviceError("x").retryable


def test_unknown_op_rejected():
    disk = SSD(capacity_blocks=100)
    with pytest.raises(ValueError):
        disk.service_time("erase", 0, 1)


def test_hdd_sequential_much_faster_than_random():
    """The ratio that drives every cost-estimation result in the paper."""
    disk = HDD()
    # Prime head position.
    disk.service_time("read", 0, 1)
    sequential = disk.service_time("read", 1, 1)
    far = disk.capacity_blocks // 2
    random = disk.service_time("read", far, 1)
    assert random / sequential > 50


def test_hdd_sequential_throughput_near_transfer_rate():
    disk = HDD()
    blocks = (100 * MB) // PAGE_SIZE
    duration = disk.service_time("read", 0, blocks)
    rate = 100 * MB / duration
    assert 0.8 * disk.transfer_rate <= rate <= disk.transfer_rate * 1.01


def test_hdd_seek_time_monotonic_in_distance():
    disk = HDD()
    near = disk.seek_time(0, 1000)
    far = disk.seek_time(0, disk.capacity_blocks - 1)
    assert 0 < near < far <= disk.max_seek_time


def test_hdd_tracks_head_position():
    disk = HDD()
    disk.service_time("write", 100, 10)
    assert disk.is_sequential(110)
    assert not disk.is_sequential(200)


def test_hdd_counts_seeks():
    disk = HDD()
    disk.service_time("read", 0, 1)
    disk.service_time("read", 1, 1)  # sequential: no seek
    disk.service_time("read", 50000, 1)  # seek
    assert disk.stats.seeks == 2  # initial positioning + the jump


def test_ssd_random_equals_sequential():
    ssd = SSD()
    ssd.service_time("read", 0, 1)
    sequential = ssd.service_time("read", 1, 1)
    random = ssd.service_time("read", ssd.capacity_blocks // 2, 1)
    assert random == pytest.approx(sequential)


def test_ssd_write_slower_than_read():
    ssd = SSD()
    read = ssd.service_time("read", 0, 256)
    write = ssd.service_time("write", 1000, 256)
    assert write > read


def test_ssd_faster_than_hdd_for_random():
    ssd, hdd = SSD(), HDD()
    ssd.service_time("read", 0, 1)
    hdd.service_time("read", 0, 1)
    assert ssd.service_time("read", 500000, 1) < hdd.service_time("read", 500000, 1) / 10


def test_stats_accumulate():
    disk = SSD()
    disk.service_time("read", 0, 4)
    disk.service_time("write", 4, 2)
    assert disk.stats.reads == 1
    assert disk.stats.writes == 1
    assert disk.stats.bytes_read == 4 * PAGE_SIZE
    assert disk.stats.bytes_written == 2 * PAGE_SIZE
    assert disk.stats.total_requests == 2
    assert disk.stats.busy_time > 0


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=256))
def test_hdd_service_time_always_positive(block, nblocks):
    disk = HDD(capacity_blocks=2 * 10**6)
    assert disk.service_time("read", block, nblocks) > 0


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=256))
def test_ssd_service_time_always_positive(block, nblocks):
    ssd = SSD(capacity_blocks=2 * 10**6)
    assert ssd.service_time("write", block, nblocks) > 0


def test_hdd_write_and_read_same_sequential_rate():
    disk = HDD()
    blocks = (16 * MB) // PAGE_SIZE
    t_read = disk.service_time("read", 0, blocks)
    disk2 = HDD()
    t_write = disk2.service_time("write", 0, blocks)
    assert t_read == pytest.approx(t_write)
