"""The worker-pool helper must preserve input order at any job count."""

import concurrent.futures

from alder import parallel
from alder.parallel import parallel_map


def _square(x):
    return x * x


def test_sequential_path():
    assert parallel_map(_square, [3, 1, 2], jobs=1) == [9, 1, 4]


def test_pool_path_preserves_order():
    items = list(range(200))
    assert parallel_map(_square, items, jobs=4) == [x * x for x in items]


def test_singleton_avoids_pool():
    assert parallel_map(_square, [7], jobs=8) == [49]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


def test_pool_never_exceeds_items_or_cpus(monkeypatch):
    # the pool branch imports the executor from concurrent.futures when it runs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)
    _RecordingPool.sizes = []
    assert parallel_map(_square, range(10), jobs=10 ** 9) == [x * x for x in range(10)]
    assert parallel_map(_square, range(10), jobs=3) == [x * x for x in range(10)]
    assert parallel_map(_square, [1, 2], jobs=10 ** 9) == [1, 4]
    assert _RecordingPool.sizes == [4, 3, 2]
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
    assert parallel_map(_square, range(10), jobs=8) == [x * x for x in range(10)]
    assert _RecordingPool.sizes == [4, 3, 2]  # one CPU: no pool at all
