"""The threads a computation may spread over, and one way to map over them.

`usable_cores` is the count the splitting populations (`gwsim`) and the
power loop's column parts (`walks`) are sized by; in a worker of a pool of
processes (`harness.run_exponent_sweep`) it is that worker's share.
`thread_map` runs a function over items on that many threads, or inline on
one.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager


# Worker processes that run at once on this host's CPUs, this one included;
# `share_cores` sets it in each worker of a process pool.
_SIBLINGS = 1


def usable_cores() -> int:
    """CPUs this process may run on (its affinity where the platform tells
    it, else the CPU count), divided among the `_SIBLINGS` worker processes
    that share them; at least 1. Read on each call."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, cpus // _SIBLINGS)


def share_cores(siblings: int) -> None:
    """Process-pool initializer: this process is one of `siblings` workers
    that run at once, so `usable_cores` gives it its share of the CPUs."""
    global _SIBLINGS
    _SIBLINGS = siblings


@contextmanager
def thread_map(workers: int):
    """A `map` over `workers` threads, shut down (threads joined) on exit,
    even when a mapped call raised; with one worker, the builtin `map`, and
    no thread starts. Results come back in item order either way."""
    if workers == 1:
        yield map
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield pool.map
