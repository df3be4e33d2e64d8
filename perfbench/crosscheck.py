"""One pass of the `crosscheck` workload in a fresh process, like a notebook
session: the Hom calculus against the linear-algebra oracle on seeded
chunks of string pairs, then the lemma property suite.

    python perfbench/crosscheck.py PLAN_JSON OUT_JSON [SPANS_OUT SPAWN_T0]

PLAN_JSON holds the ops in the order to run them; OUT_JSON receives one
record per op with its in-process latency, what it examined and a digest
of its results, and the host-speed reference times taken between the ops
(see reference.py).  With SPANS_OUT the pass runs traced.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time

import reference

perf = time.perf_counter


def main(argv) -> int:
    plan_path, out_path = argv[0], argv[1]
    traced = len(argv) > 2
    t_import = perf()
    import mgslab.algebra
    import mgslab.lemmas
    import mgslab.modules
    import mgslab.oracle
    import mgslab.words

    t_ready = perf()
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # Called through the modules so that traced wrappers are used.
    algebra, words, modules, oracle = (mgslab.algebra, mgslab.words,
                                       mgslab.modules, mgslab.oracle)

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    algebras = {}
    for name, path in plan["algebras"].items():
        alg = algebra.load_algebra(path)
        if not algebra.validate_axioms(alg).is_string_algebra:
            raise SystemExit(f"{path} is not a string algebra")
        algebras[name] = alg
    reps: dict = {}

    def rep(alg_name, w):
        key = (alg_name, w.key())
        if key not in reps:
            alg = algebras[alg_name]
            reps[key] = oracle.to_explicit(modules.string_module(alg, w))
        return reps[key]

    records, bracket = [], reference.Bracket(reference.run_here)
    for op in plan["ops"]:
        name, kind, alg_name, ex = op["name"], op["kind"], op["algebra"], op["expect"]
        alg = algebras[alg_name]
        t0 = perf()
        if kind == "pairs":
            strings = words.enumerate_strings(alg, ex["max_len"])
            pairs = [(i, j) for i in range(len(strings)) for j in range(len(strings))]
            random.Random(ex["order_seed"]).shuffle(pairs)
            start = ex["chunk"] * plan["chunk"]
            dims, mismatches = [], []
            for i, j in pairs[start:start + plan["chunk"]]:
                a, b = strings[i], strings[j]
                calc = modules.hom_dim(alg, a, b)
                lin = oracle.hom_dim_linalg(rep(alg_name, a), rep(alg_name, b))
                dims.append(calc)
                if calc != lin:
                    mismatches.append(f"Hom({a}, {b}): calculus {calc}, oracle {lin}")
            seconds = perf() - t0
            rec = {"examined": len(dims), "mismatches": mismatches,
                   "strings": len(strings), "complete": True,
                   "digest": hashlib.sha256(json.dumps(dims).encode()).hexdigest()}
        else:
            report = mgslab.lemmas.run_lemma_suite(alg, ex["max_len"])
            seconds = perf() - t0
            payload = report.payload()
            rec = {"examined": sum(v["examined"] for v in payload.values()
                                   if isinstance(v, dict) and "examined" in v),
                   "counterexamples": report.total_counterexamples,
                   "complete": not report.mgs_budget_exhausted,
                   "digest": hashlib.sha256(json.dumps(
                       payload, sort_keys=True).encode()).hexdigest()}
        rec.update(name=name, raw_s=seconds)
        records.append(rec)
        bracket.done(rec)
    bracket.flush()

    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"ops": records, "refs": bracket.times}, fh)
    if tracer is not None:
        tracer.dump(argv[2], startup_s=t_ready - float(argv[3]),
                    import_s=t_ready - t_import)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
