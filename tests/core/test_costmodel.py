"""Tests for the two-stage cost models (§3.2)."""

import pytest

from repro.block.request import BlockRequest, READ, WRITE
from repro.core.costmodel import DiskCostModel, MemoryCostModel
from repro.devices import HDD, SSD
from repro.proc import Task
from repro.units import MB, PAGE_SIZE


def make_page(inode_id, index):
    """The ``(inode id, index)`` a dirtied page is estimated by."""
    return inode_id, index


def test_memory_model_sequential_writes_cheap():
    model = MemoryCostModel()
    costs = [model.estimate(*make_page(1, index)) for index in range(5)]
    assert all(cost == PAGE_SIZE for cost in costs)


def test_memory_model_random_writes_penalized():
    model = MemoryCostModel(random_penalty=10)
    model.estimate(*make_page(1, 0))
    cost = model.estimate(*make_page(1, 5000))  # big jump in the file
    assert cost == 10 * PAGE_SIZE


def test_memory_model_overwrite_of_previous_page_is_sequential():
    model = MemoryCostModel()
    model.estimate(*make_page(1, 10))
    # Writing index 10 again (expected_next is 11; 10 == 11 - 1).
    assert model.estimate(*make_page(1, 10)) == PAGE_SIZE


def test_memory_model_per_file_tracking():
    model = MemoryCostModel()
    model.estimate(*make_page(1, 0))
    model.estimate(*make_page(2, 9000))  # different file: fresh detector
    assert model.estimate(*make_page(1, 1)) == PAGE_SIZE


def test_disk_model_normalizes_by_sequential_rate():
    disk = HDD()
    model = DiskCostModel(disk)
    request = BlockRequest(READ, 0, 1, Task("t"))
    # A request that took 10 ms on a 110 MB/s disk = ~1.1 MB equivalent.
    cost = model.normalized_bytes(request, duration=0.01)
    assert cost == pytest.approx(0.01 * disk.transfer_rate)


def test_disk_model_sequential_io_costs_its_bytes():
    disk = HDD()
    model = DiskCostModel(disk)
    nbytes = 1 * MB
    duration = nbytes / disk.transfer_rate
    request = BlockRequest(WRITE, 0, 256, Task("t"))
    assert model.normalized_bytes(request, duration) == pytest.approx(nbytes, rel=0.01)


def test_disk_model_zero_duration_falls_back_to_bytes():
    model = DiskCostModel(SSD())
    request = BlockRequest(READ, 0, 2, Task("t"))
    assert model.normalized_bytes(request, 0.0) == request.nbytes


def test_revision_is_actual_minus_preliminary():
    model = DiskCostModel(HDD())
    request = BlockRequest(WRITE, 0, 1, Task("t"))
    actual = model.normalized_bytes(request, 0.01)
    assert model.revision(request, 0.01, preliminary=1000.0) == pytest.approx(actual - 1000.0)


def test_disk_model_uses_ssd_read_bandwidth():
    ssd = SSD()
    model = DiskCostModel(ssd)
    assert model.sequential_rate == ssd.read_bandwidth
