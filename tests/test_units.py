"""Tests for unit helpers."""

from repro.units import GB, KB, MB, PAGE_SIZE


def test_constants_are_consistent():
    assert KB == 1024
    assert MB == 1024 * KB
    assert GB == 1024 * MB
    assert PAGE_SIZE == 4 * KB

