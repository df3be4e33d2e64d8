"""Serial map over brick candidates, a named function so that the
benchmark tracer (``perfbench/tracer.py``) can time it."""


def pmap(fn, items):
    return [fn(x) for x in items]
