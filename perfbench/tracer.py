"""Spans around mgslab's public functions, recorded from outside the library.

`Tracer.install()` replaces each function in SPECS by a wrapper at every
`mgslab` module attribute that holds it (so `from .modules import hom_dim`
in another module is covered too), and wraps the `HomTable` methods.  A
wrapper appends one span `[name, start, end, parent, extra]` to an
in-memory list; `extra` is a count read from the result.  Nothing is
written until `dump()`.

Run as a script it is the traced stand-in for `python -m mgslab.cli`:

    python perfbench/tracer.py SPANS_OUT SPAWN_T0 -- <mgslab cli args>

It prints exactly what the CLI prints and exits with its code.
"""

from __future__ import annotations

import json
import sys
import time

perf = time.perf_counter


def _len(result):
    return len(result)


def _pools(result):
    return [len(result.member), len(result.insertion_strings),
            len(result.insertion_bands), len(result.excluded)]


def _search(result):
    if result is None or not hasattr(result, "nodes"):  # complete_from_prefix
        return [0, 0 if result is None else 1]
    return [result.nodes, len(result.sequences)]


def _search_exhausted(exc):
    return [exc.nodes, len(exc.partial)]


def _lemmas(report):
    return sum(v["examined"] for v in report.payload().values()
               if isinstance(v, dict) and "examined" in v)


# (module, attribute, span name, summary of the result)
SPECS = (
    ("mgslab.cli", "main", "cli.main", None),
    ("mgslab.algebra", "load_algebra", "algebra.load", None),
    ("mgslab.algebra", "validate_axioms", "algebra.validate", None),
    ("mgslab.words", "enumerate_strings", "words.strings", _len),
    ("mgslab.words", "enumerate_bands", "words.bands", _len),
    ("mgslab.modules", "enumerate_bricks", "modules.bricks", _len),
    ("mgslab.modules", "hom_dim", "modules.hom_dim", None),
    ("mgslab.oracle", "to_explicit", "oracle.to_explicit", None),
    ("mgslab.oracle", "hom_dim_linalg", "oracle.hom_linalg", None),
    ("mgslab.oracle", "exists_full_rank_hom", "oracle.full_rank", None),
    ("mgslab.mgs", "build_brick_pools", "mgs.pools", _pools),
    ("mgslab.mgs", "enumerate_mgs", "mgs.search", _search),
    ("mgslab.mgs", "complete_from_prefix", "mgs.search", _search),
    ("mgslab.mgs", "is_complete_relative", "mgs.certify", None),
    ("mgslab.mgs", "is_weakly_fho", "mgs.fho", None),
    ("mgslab.lemmas", "run_lemma_suite", "lemmas.suite", _lemmas),
    ("mgslab.concurrency", "pmap", "concurrency.pmap", None),
)
HOMTABLE_METHODS = ("hom", "hom_string_band", "hom_band_string")

# span name -> (self-time metric, call-count metric, names for its summed counts)
LAYER_SPANS = {
    "cli.main": ("cli.main_self_s", None, ()),
    "algebra.load": ("algebra.load_s", None, ()),
    "algebra.validate": ("algebra.validate_s", None, ()),
    "words.strings": ("words.strings_s", None, ("words.strings_n",)),
    "words.bands": ("words.bands_s", None, ("words.bands_n",)),
    "modules.bricks": ("modules.bricks_s", None, ("modules.bricks_n",)),
    "modules.hom_dim": ("modules.hom_dim_s", "modules.hom_dim_calls", ()),
    "oracle.to_explicit": ("oracle.to_explicit_s", "oracle.to_explicit_calls", ()),
    "oracle.hom_linalg": ("oracle.hom_linalg_s", "oracle.hom_linalg_calls", ()),
    "oracle.full_rank": ("oracle.full_rank_s", "oracle.full_rank_calls", ()),
    "mgs.pools": ("mgs.pools_s", None, ("mgs.member_n", "mgs.insertion_strings_n",
                                        "mgs.insertion_bands_n", "mgs.excluded_n")),
    "mgs.homtable": ("mgs.homtable_s", "mgs.homtable_calls", ()),
    "mgs.certify": ("mgs.certify_s", "mgs.certify_calls", ()),
    "mgs.fho": ("mgs.fho_s", "mgs.fho_calls", ()),
    "mgs.search": ("mgs.search_s", "mgs.search_calls", ("mgs.nodes", "mgs.sequences_n")),
    "lemmas.suite": ("lemmas.suite_s", None, ("lemmas.examined_n",)),
    "concurrency.pmap": ("concurrency.pmap_s", "concurrency.pmap_calls", ()),
}


def layer_units() -> dict[str, str]:
    units = {"cli.startup_s": "s", "mgs.nodes_per_s": "1/s", "trace.wall_s": "s",
             "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
             "trace.spans_n": "count"}
    for time_name, calls, counts in LAYER_SPANS.values():
        units[time_name] = "s"
        for n in ((calls,) if calls else ()) + counts:
            units[n] = "count"
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, summary=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, perf(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if summary is not None:
                    span[4] = summary(result)
                return result
            except Exception as exc:
                if hasattr(exc, "nodes") and hasattr(exc, "partial"):
                    span[4] = _search_exhausted(exc)  # BudgetExhausted
                raise
            finally:
                stack.pop()
                span[2] = perf()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import importlib

        for modname, _, _, _ in SPECS:
            importlib.import_module(modname)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "mgslab" or name.startswith("mgslab."))]
        for modname, attr, name, summary in SPECS:
            orig = getattr(sys.modules[modname], attr)
            traced = self.wrap(name, orig, summary)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
        table = sys.modules["mgslab.mgs"].HomTable
        for meth in HOMTABLE_METHODS:
            setattr(table, meth, self.wrap("mgs.homtable", getattr(table, meth)))

    def dump(self, path, **extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, spans=self.spans), fh, separators=(",", ":"))


def self_times(spans):
    """Per span name: [self seconds, calls, summed counts]; self time is a
    span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, parent, extra) in enumerate(spans):
        agg = out.setdefault(name, [0.0, 0, None])
        agg[0] += (end - start) - child[i]
        agg[1] += 1
        if extra is not None:
            if isinstance(extra, list):
                agg[2] = [a + b for a, b in zip(agg[2] or [0] * len(extra), extra)]
            else:
                agg[2] = (agg[2] or 0) + extra
    return out


def _main(argv):
    spans_out, t0 = argv[0], float(argv[1])
    cli_args = argv[argv.index("--") + 1:]
    t_import = perf()
    import mgslab.cli

    t_ready = perf()
    tracer = Tracer()
    tracer.install()
    code = mgslab.cli.main(cli_args)
    sys.stdout.flush()
    tracer.dump(spans_out, startup_s=t_ready - t0, import_s=t_ready - t_import)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
