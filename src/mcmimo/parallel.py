"""Thread lanes sized to the work: never more lanes than tasks or CPUs."""

from __future__ import annotations

import os

__all__ = ["pool_size", "run_lanes"]


def pool_size(workers: int | None, tasks: int) -> int:
    """Lanes to run for ``tasks`` tasks when at most ``workers`` were
    requested (``None``: no cap): ``min(workers, tasks, os.cpu_count() or 1)``."""
    cpus = os.cpu_count() or 1
    return min(tasks, cpus) if workers is None else min(workers, tasks, cpus)


def run_lanes(fn, lanes: int) -> None:
    """Call ``fn(t)`` for every lane ``t`` in ``range(lanes)``: inline when
    there is one lane, otherwise on one thread per lane.  The first lane's
    exception, if any, is raised in the caller once every lane has ended."""
    if lanes <= 1:
        fn(0)
        return
    # imported here: a run with one lane never needs it
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=lanes) as pool:
        futures = [pool.submit(fn, t) for t in range(lanes)]
    for future in futures:
        future.result()
