"""One fork-pool map for every stage that honours ``workers``.

Children are forked, so they inherit the function and the arrays it
reads without pickling them; only each item's result is pickled back.
A child takes one item at a time and sends its result back alone, so
the caller holds one result's pickle, not a run of them, and gets each
result as soon as it and those before it are done. Results are yielded
in item order as they arrive, so a caller that combines them in that
order gets the same bytes at any worker count.

Each child starts on its own CPU and may move from there: forked
children otherwise tend to share their parent's CPU, for seconds, while
another CPU idles.

A map runs in the calling process when one worker is asked for, when
there is at most one item, when the platform cannot fork, or when the
caller is itself a pool child: pool children are daemonic and may not
start children of their own, so pools never nest.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from typing import Callable, Iterable, Iterator

# (fn, items) of the map this pool child serves; set only in children,
# by the pool's initializer
_task: tuple | None = None


def _install(fn: Callable, items: list, started) -> None:
    global _task
    _task = (fn, items)
    with started.get_lock():
        slot = started.value
        started.value += 1
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[slot % len(cpus)]})
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):  # placement is only a hint
        pass


def _call(i: int):
    fn, items = _task
    return fn(items[i])


def map(fn: Callable, items: Iterable, workers: int) -> Iterator:
    """``fn(item) for item in items``, spread over ``workers`` forked
    processes one item per task.

    ``fn`` may be a closure: it reaches the children by fork, not by
    pickle. An exception raised by ``fn`` in a child is raised here,
    when its result is due.
    """
    items = list(items)
    if workers > 1 and len(items) > 1 and not mp.current_process().daemon:
        try:
            ctx = mp.get_context("fork")
        except ValueError:  # no fork on this platform
            pass
        else:
            with ctx.Pool(min(workers, len(items)), _install,
                          (fn, items, ctx.Value("i", 0))) as pool:
                yield from pool.imap(_call, range(len(items)))
            return
    for item in items:
        yield fn(item)
