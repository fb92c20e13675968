import os

import numpy as np
import pytest

from multiscreen import MultiStudy, Study


def make_multistudy(rng, n=30, p=8, k=3, signal=0.8, s0=2,
                    unequal_n=False) -> tuple[MultiStudy, tuple[int, ...]]:
    """Small random instance with the first s0 features active."""
    studies = []
    active = tuple(range(s0))
    for ki in range(k):
        nk = n + (ki * 3 if unequal_n else 0)
        x = rng.normal(size=(nk, p))
        beta = np.zeros(p)
        beta[list(active)] = signal
        y = x @ beta + rng.normal(scale=0.5, size=nk)
        studies.append(Study(id=f"s{ki + 1}", x=x, y=y))
    names = tuple(f"g{j + 1}" for j in range(p))
    return MultiStudy(studies=tuple(studies), feature_names=names), active


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def use_cpus(monkeypatch, n):
    """Make ``forked_map`` see ``n`` usable CPUs: it runs in this process
    for 1 and forks at most one child per CPU otherwise."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(n)), raising=False)


def count_forks(monkeypatch):
    """A list that grows by one entry at each ``os.fork``."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_child_left():
    # waitpid(-1) raises ChildProcessError once this process has no child,
    # running or unreaped.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
