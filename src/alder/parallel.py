"""Order-restoring work splitting for ``inject`` cells.

Cells are pure functions of their parameters, so any degree of
parallelism must produce the identical report; results are therefore
collected strictly in input order.  Workers build the count tables they
read lazily (on fork-based platforms they also inherit every table built
before the pool starts), which gives the same values either way.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Sequence[T], jobs: int = 1) -> list[R]:
    """``[fn(x) for x in items]`` over at most ``jobs`` worker processes.

    The pool never has more workers than items or CPUs: with the fork start
    method every worker is started up front, whatever work it then gets.
    """
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    # imported here: multiprocessing costs every other command start-up time
    from concurrent.futures import ProcessPoolExecutor
    chunk = max(1, len(items) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunk))
