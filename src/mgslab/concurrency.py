"""Thread-capped parallel map; MGSLAB_THREADS bounds the worker count.

Results keep input order, so parallel runs are byte-identical to serial
ones."""

from __future__ import annotations

import os


def thread_count() -> int:
    raw = os.environ.get("MGSLAB_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def pmap(fn, items):
    items = list(items)
    n = thread_count()
    if n <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=n) as ex:
        return list(ex.map(fn, items))
