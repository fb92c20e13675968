"""The package's one process-parallel map, ``_forked.forked_map``: item
order, where errors surface, and that no child outlives a map."""

import os
import time

import pytest

from conftest import assert_no_child_left, count_forks, use_cpus
from multiscreen._forked import ChildEnded, forked_map, usable_cpus

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="forked_map forks only with os.fork")


@pytest.fixture(autouse=True)
def eight_cpus(monkeypatch):
    # The worker counts below fork as many children on any host.
    use_cpus(monkeypatch, 8)


def tagged(item):
    return item, os.getpid()


@pytest.mark.parametrize("workers", [2, 3])
def test_outcomes_come_back_in_item_order(workers):
    got = list(forked_map(tagged, range(7), workers))
    assert [item for item, _ in got] == list(range(7))
    # Child w computes items w, w + W, ...: one process per residue.
    pids = [pid for _, pid in got]
    assert len(set(pids)) == workers and os.getpid() not in pids
    assert all(pids[i] == pids[i % workers] for i in range(7))
    assert_no_child_left()


def test_child_exception_raised_at_its_turn():
    def fails_at_4(item):
        if item == 4:
            raise KeyError(f"item {item}")
        return item * item

    got = []
    with pytest.raises(KeyError, match="item 4"):
        for value in forked_map(fails_at_4, range(7), 2):
            got.append(value)
    assert got == [0, 1, 4, 9]
    assert_no_child_left()


@pytest.mark.parametrize("end", [lambda: os._exit(3), lambda: lambda: None],
                         ids=["exit", "unpicklable"])
def test_child_that_dies_raises_runtime_error(end):
    def dies_at_2(item):
        return end() if item == 2 else item

    got = []
    with pytest.raises(RuntimeError, match="computing item 2 ended") as raised:
        for value in forked_map(dies_at_2, range(5), 2):
            got.append(value)
    assert raised.type is ChildEnded and raised.value.item == 2
    assert got == [0, 1]
    assert_no_child_left()


def test_closed_generator_reaps_children():
    # Outcomes of 200 kB fill a pipe, so the children block while writing.
    outcomes = forked_map(lambda item: bytes(200_000), range(8), 3)
    assert len(next(outcomes)) == 200_000
    outcomes.close()
    assert_no_child_left()


def test_closing_kills_a_busy_child():
    outcomes = forked_map(lambda item: time.sleep(20 * item) or item,
                          range(2), 2)
    start = time.monotonic()
    assert next(outcomes) == 0
    outcomes.close()
    assert time.monotonic() - start < 10
    assert_no_child_left()


def test_forks_at_most_one_child_per_item(monkeypatch):
    forks = count_forks(monkeypatch)
    assert [item for item, _ in forked_map(tagged, range(3), 8)] == [0, 1, 2]
    assert len(forks) == 3
    assert_no_child_left()


@pytest.mark.parametrize("workers", [64, None])
def test_forks_at_most_one_child_per_usable_cpu(monkeypatch, workers):
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    got = list(forked_map(tagged, range(5), workers))
    assert [item for item, _ in got] == list(range(5))
    assert len(forks) == 2 and len({pid for _, pid in got}) == 2
    assert_no_child_left()


def test_no_child_without_sched_getaffinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    forks = count_forks(monkeypatch)
    assert list(forked_map(tagged, range(5), 4)) \
        == [(item, os.getpid()) for item in range(5)]
    assert forks == []


@pytest.mark.parametrize("items, workers", [(range(5), 1), (range(1), 4),
                                             (range(0), 4)])
def test_fewer_than_two_workers_run_in_this_process(monkeypatch, items,
                                                     workers):
    forks = count_forks(monkeypatch)
    assert list(forked_map(tagged, items, workers)) \
        == [(item, os.getpid()) for item in items]
    assert forks == []
    assert_no_child_left()


def test_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    assert usable_cpus() == 3
    monkeypatch.delattr(os, "fork")
    assert usable_cpus() == 1
