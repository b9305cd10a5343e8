"""Process pools sized to the work: never more workers than tasks or CPUs."""

from __future__ import annotations

import os

__all__ = ["pool_size", "parallel_map"]


def pool_size(workers: int, tasks: int) -> int:
    """Worker processes to start for ``tasks`` tasks when ``workers`` were
    requested: ``min(workers, tasks, os.cpu_count() or 1)``."""
    return min(workers, tasks, os.cpu_count() or 1)


def parallel_map(fn, args: list, workers: int) -> list:
    """``[fn(a) for a in args]``, in order, on a pool of
    :func:`pool_size` processes when that is more than one."""
    size = pool_size(workers, len(args))
    if size <= 1:
        return [fn(a) for a in args]
    # imported here: it loads multiprocessing, which a run without a pool
    # never needs
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(fn, args))
