"""Tests for token buckets and the bucket registry."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.proc import Task
from repro.schedulers.tokens import BucketRegistry, TokenBucket
from repro.sim import Environment


def test_rate_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        TokenBucket(env, rate=0)


def test_bucket_starts_full():
    env = Environment()
    bucket = TokenBucket(env, rate=100, cap=500)
    assert bucket.balance == 500


def test_charge_can_go_negative():
    env = Environment()
    bucket = TokenBucket(env, rate=100, cap=100)
    bucket.charge(250)
    assert bucket.balance == -150


def test_accrual_over_time():
    env = Environment()
    bucket = TokenBucket(env, rate=10, cap=100)
    bucket.charge(100)
    env.run(until=5)
    assert bucket.balance == pytest.approx(50)


def test_accrual_capped():
    env = Environment()
    bucket = TokenBucket(env, rate=10, cap=100)
    env.run(until=1000)
    assert bucket.balance == 100


def test_refund_capped():
    env = Environment()
    bucket = TokenBucket(env, rate=10, cap=100)
    bucket.refund(1000)
    assert bucket.balance == 100


def test_time_until_level():
    env = Environment()
    bucket = TokenBucket(env, rate=10, cap=100)
    bucket.charge(150)  # balance -50
    assert bucket.time_until(0.0) == pytest.approx(5.0)
    assert bucket.time_until(-100) == 0.0


def test_charged_total_tracks_positive_charges():
    env = Environment()
    bucket = TokenBucket(env, rate=10)
    bucket.charge(5)
    bucket.charge(7)
    assert bucket.charged_total == 12


def test_registry_shared_bucket():
    env = Environment()
    registry = BucketRegistry(env)
    a, b = Task("a"), Task("b")
    bucket = registry.set_limit([a, b], rate=100)
    assert registry.by_pid.get(a.pid) is bucket
    assert registry.by_pid.get(b.pid) is bucket


def test_registry_single_task():
    env = Environment()
    registry = BucketRegistry(env)
    task = Task("t")
    bucket = registry.set_limit(task, rate=10)
    assert registry.by_pid.get(task.pid) is bucket
    assert registry.by_pid.get(Task("other").pid) is None


def test_buckets_for_causes():
    from repro.core.tags import CauseSet

    env = Environment()
    registry = BucketRegistry(env)
    a, b = Task("a"), Task("b")
    bucket = registry.set_limit(a, rate=10)
    found = registry.buckets_for_causes(CauseSet([a.pid, b.pid]))
    assert found == {a.pid: bucket}


@given(st.lists(st.floats(min_value=0.1, max_value=1000), min_size=1, max_size=30))
def test_balance_never_exceeds_cap(charges):
    env = Environment()
    bucket = TokenBucket(env, rate=50, cap=200)
    for amount in charges:
        bucket.charge(amount)
        bucket.refund(amount)
        assert bucket.balance <= 200
