"""Command-line front end.

Every subcommand prints a single JSON document: command echo, a content
fingerprint of the normalized algebra, the payload, and a certificate block
naming pool bounds where one applies.  All numbers are exact (integers, or
rationals as strings).  Exit codes: 0 success (and, for ``mgs check``, a
complete-relative verdict); 2 usage error; 3 algebra or input error;
4 budget exhausted (partial payload still printed).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .algebra import AlgebraError, load_algebra, validate_axioms, vertex_arrow_count
from .mgs import (
    BudgetExhausted,
    HomTable,
    OracleDisagreement,
    TheoremCounterexample,
    build_brick_pools,
    complete_from_prefix,
    domestic_gentle_order,
    enumerate_mgs,
    is_complete_relative,
    is_weakly_fho,
    simple_order_socle_first,
)
from .modules import (
    ModuleError,
    band_module,
    enumerate_bricks,
    hom_dim,
    string_module,
    top_socle,
)
from .oracle import hom_dim_linalg, to_explicit
from .words import (
    Walk,
    WalkError,
    band_pool,
    enumerate_bands,
    enumerate_strings,
    parse_walk,
)

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4


def _walks(ws) -> list[str]:
    return [str(w) for w in ws]


def _mat_payload(rep) -> dict:
    return {
        "dims": {v: d for v, d in rep.dims},
        "matrices": {
            name: [[str(x) for x in row] for row in mat]
            for name, mat in rep.mats
        },
    }


def _verdict_payload(v) -> dict:
    return {
        "kind": v.kind,
        "witness": None
        if v.witness_brick is None
        else {
            "brick": str(v.witness_brick),
            "is_band_brick": v.witness_is_band,
            "position": v.witness_position,
        },
        "missing_simples": list(v.missing_simples),
        "banned_entries": [
            {"brick": str(b), "band": str(band)} for b, band in v.banned_entries
        ],
        "band_square_blockers": [
            {"brick": str(b), "band": str(band), "position": p}
            for b, band, p in v.band_square_blockers
        ],
        "band_square_obstructed": v.band_square_obstructed,
        "pools": v.pool_descriptor,
    }


def _write(doc: dict) -> None:
    # streamed, so a large payload is never held as one string
    json.dump(doc, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def _emit(args_echo, alg, payload, certificate=None) -> None:
    _write({
        "command": args_echo,
        "algebra_fingerprint": alg.fingerprint,
        "payload": payload,
        "certificate": certificate,
    })


def _parse_lambdas(text: str) -> tuple[Fraction, ...]:
    try:
        vals = tuple(Fraction(tok) for tok in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise WalkError(f"bad lambda list {text!r}: {exc}")
    if any(v == 0 for v in vals) or not vals:
        raise WalkError("lambda samples must be nonzero")
    return vals


def _require_string_algebra(alg):
    report = validate_axioms(alg)
    if not report.is_string_algebra:
        raise AlgebraError(
            "not a string algebra: " + "; ".join(f"{t}: {w}" for t, w in report.violations)
        )
    return report


def _read_sequence(alg, path) -> tuple[Walk, ...]:
    entries = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                entries.append(parse_walk(alg, line))
    return tuple(entries)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mgslab")
    sub = p.add_subparsers(dest="cmd", required=True)

    def alg_arg(sp):
        sp.add_argument("--algebra", required=True, help="algebra file")

    sp = sub.add_parser("validate", help="string/gentle axiom report")
    alg_arg(sp)

    sp = sub.add_parser("strings", help="enumerate strings up to a length")
    alg_arg(sp)
    sp.add_argument("--max-len", type=int, required=True)

    sp = sub.add_parser("bands", help="enumerate band classes up to a length")
    alg_arg(sp)
    sp.add_argument("--max-len", type=int, required=True)

    sp = sub.add_parser("module", help="string or band module representations")
    msub = sp.add_subparsers(dest="module_cmd", required=True)
    ms = msub.add_parser("show", help="string module with ASCII diagram")
    alg_arg(ms)
    ms.add_argument("walk")
    mb = msub.add_parser("band", help="band module M(w, lambda, k)")
    alg_arg(mb)
    mb.add_argument("walk")
    mb.add_argument("--lam", default="1")
    mb.add_argument("--k", type=int, default=1)

    sp = sub.add_parser("hom", help="Hom dimension, combinatorial and oracle")
    alg_arg(sp)
    sp.add_argument("source")
    sp.add_argument("target")

    sp = sub.add_parser("bricks", help="enumerate string bricks")
    alg_arg(sp)
    sp.add_argument("--max-len", type=int, required=True)

    sp = sub.add_parser("oracle", help="linear-algebra oracle")
    osub = sp.add_subparsers(dest="oracle_cmd", required=True)
    oh = osub.add_parser("hom", help="intertwiner-space dimension")
    alg_arg(oh)
    oh.add_argument("source")
    oh.add_argument("target")
    oh.add_argument("--band1", default=None, help="treat source as band, M(w, LAM, 1)")
    oh.add_argument("--band2", default=None, help="treat target as band, M(w, LAM, 1)")

    sp = sub.add_parser("mgs", help="maximal green sequences")
    gsub = sp.add_subparsers(dest="mgs_cmd", required=True)

    def pool_args(spp):
        spp.add_argument("--max-string-len", type=int, required=True)
        spp.add_argument("--band-len", type=int, default=None)
        spp.add_argument("--lambda", dest="lambdas", default="1,2")

    ge = gsub.add_parser("enumerate", help="enumerate complete sequences")
    alg_arg(ge)
    pool_args(ge)
    ge.add_argument("--budget", type=int, default=None)
    ge.add_argument("--contains", default=None,
                    help="sequence file; restrict to sequences containing"
                         " these entries in this relative order")
    gc = gsub.add_parser("check", help="verify a sequence file")
    alg_arg(gc)
    pool_args(gc)
    gc.add_argument("--sequence", required=True)
    gx = gsub.add_parser("exists", help="existence constructions")
    alg_arg(gx)
    gx.add_argument("--method", choices=("simples", "gentle"), required=True)
    gx.add_argument("--max-string-len", type=int, default=8)
    gx.add_argument("--band-len", type=int, default=None)
    gx.add_argument("--lambda", dest="lambdas", default="1,2")
    gx.add_argument("--budget", type=int, default=None)

    sp = sub.add_parser("lemmas", help="lemma property suite")
    lsub = sp.add_subparsers(dest="lemmas_cmd", required=True)
    lr = lsub.add_parser("run")
    alg_arg(lr)
    lr.add_argument("--max-len", type=int, required=True)
    lr.add_argument("--band-len", type=int, default=None)
    lr.add_argument("--budget", type=int, default=500_000)

    return p


def _cmd_validate(alg, args):
    report = validate_axioms(alg)
    return {
        "is_string_algebra": report.is_string_algebra,
        "is_gentle": report.is_gentle,
        "violations": [{"axiom": t, "witness": w} for t, w in report.violations],
        "vertex_arrow_counts": vertex_arrow_count(alg),
        "max_relation_length": alg.max_relation_length,
    }, None


def _cmd_strings(alg, args):
    _require_string_algebra(alg)
    return {"max_len": args.max_len,
            "strings": _walks(enumerate_strings(alg, args.max_len))}, None


def _cmd_bands(alg, args):
    _require_string_algebra(alg)
    records = enumerate_bands(alg, args.max_len)
    return {
        "max_len": args.max_len,
        "bands": [{"band": str(r.canonical), "minimal": r.is_minimal} for r in records],
    }, None


def _cmd_module(alg, args):
    _require_string_algebra(alg)
    if args.module_cmd == "show":
        from . import diagram

        w = parse_walk(alg, args.walk)
        M = string_module(alg, w)
        top, socle = top_socle(M)
        payload = {
            "walk": str(M.walk),
            "top": list(top),
            "socle": list(socle),
            "diagram": diagram.render_diagram(M.walk),
        }
        payload.update(_mat_payload(to_explicit(M)))
        return payload, None
    w = parse_walk(alg, args.walk)
    B = band_module(alg, w, Fraction(args.lam), args.k)
    payload = {"walk": str(w), "lambda": args.lam, "k": args.k}
    payload.update(_mat_payload(to_explicit(B)))
    return payload, None


def _cmd_hom(alg, args):
    _require_string_algebra(alg)
    w1, w2 = parse_walk(alg, args.source), parse_walk(alg, args.target)
    combinatorial = hom_dim(alg, w1, w2)
    oracle = hom_dim_linalg(
        to_explicit(string_module(alg, w1)), to_explicit(string_module(alg, w2))
    )
    if combinatorial != oracle:
        raise AssertionError(
            f"hom calculus ({combinatorial}) disagrees with oracle ({oracle})"
        )
    return {"source": str(w1), "target": str(w2), "hom_dim": combinatorial,
            "oracle_dim": oracle}, None


def _cmd_bricks(alg, args):
    _require_string_algebra(alg)
    infos = enumerate_bricks(alg, args.max_len)
    return {
        "max_len": args.max_len,
        "bricks": [
            {"walk": str(i.walk),
             "band_square_supports": _walks(i.band_square_supports)}
            for i in infos
        ],
    }, None


def _cmd_oracle(alg, args):
    _require_string_algebra(alg)

    def rep(text, band_lam):
        w = parse_walk(alg, text)
        if band_lam is not None:
            return to_explicit(band_module(alg, w, Fraction(band_lam), 1))
        return to_explicit(string_module(alg, w))

    A = rep(args.source, args.band1)
    B = rep(args.target, args.band2)
    return {"source": args.source, "target": args.target,
            "oracle_dim": hom_dim_linalg(A, B)}, None


def _pools_for(alg, args):
    return build_brick_pools(
        alg, args.max_string_len,
        lambdas=_parse_lambdas(args.lambdas),
        band_bound=args.band_len,
    )


def _cmd_mgs(alg, args):
    _require_string_algebra(alg)
    if args.mgs_cmd == "enumerate":
        pools = _pools_for(alg, args)
        contains = None
        if args.contains:
            contains = _read_sequence(alg, args.contains)
        result = enumerate_mgs(alg, pools, budget=args.budget,
                               require_subsequence=contains)
        names = {id(w): str(w) for w in pools.member}  # one string per member
        payload = {
            "sequences": [[names[id(w)] for w in s] for s in result.sequences],
            "count": len(result.sequences),
            "nodes": result.nodes,
            "member_pool": _walks(pools.member),
            "excluded": [
                {"brick": str(b), "band": str(w)} for b, w in pools.excluded
            ],
            "notes": sorted(set(result.diagnostics)),
        }
        if contains is not None:
            payload["contains"] = _walks(contains)
        return payload, pools.descriptor()
    if args.mgs_cmd == "check":
        pools = _pools_for(alg, args)
        entries = _read_sequence(alg, args.sequence)
        table = HomTable(alg)
        weakly = is_weakly_fho(alg, entries, table)
        payload = {"entries": _walks(entries), "weakly_fho": weakly}
        if weakly:
            verdict = is_complete_relative(alg, entries, pools, table)
            payload["verdict"] = _verdict_payload(verdict)
            code = EXIT_OK if verdict.kind == "complete" else EXIT_VERDICT
        else:
            payload["verdict"] = None
            code = EXIT_VERDICT
        return payload, pools.descriptor(), code
    # exists
    bound = args.band_len if args.band_len is not None else args.max_string_len // 2
    pool = band_pool(alg, bound)
    if args.method == "simples":
        res = simple_order_socle_first(alg, pool)
        payload = {
            "method": "simples",
            "hypothesis_holds": res.hypothesis_holds,
            "witnesses": [
                {"simple": s, "top_of": t, "socle_of": so} for s, t, so in res.witnesses
            ],
            "order": list(res.order),
        }
        order = res.order
    else:
        res = domestic_gentle_order(alg, pool)
        payload = {
            "method": "gentle",
            "chunks": [list(c) for c in res.chunks],
            "order": list(res.order),
        }
        order = res.order
    pools = _pools_for(alg, args)
    completed = complete_from_prefix(alg, pools, order, budget=args.budget)
    payload["completed"] = None if completed is None else _walks(completed)
    return payload, pools.descriptor()


def _cmd_lemmas(alg, args):
    from .lemmas import run_lemma_suite

    _require_string_algebra(alg)
    report = run_lemma_suite(
        alg, args.max_len, band_bound=args.band_len, mgs_budget=args.budget
    )
    payload = report.payload()
    return payload, {"max_len": args.max_len, "band_bound": args.band_len}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    handlers = {
        "validate": _cmd_validate,
        "strings": _cmd_strings,
        "bands": _cmd_bands,
        "module": _cmd_module,
        "hom": _cmd_hom,
        "bricks": _cmd_bricks,
        "oracle": _cmd_oracle,
        "mgs": _cmd_mgs,
        "lemmas": _cmd_lemmas,
    }
    code = EXIT_OK
    try:
        alg = load_algebra(args.algebra)
        out = handlers[args.cmd](alg, args)
        if len(out) == 3:
            payload, certificate, code = out
        else:
            payload, certificate = out
    except BudgetExhausted as exc:
        payload = {
            "error": str(exc),
            "budget_exhausted": True,
            "partial_sequences": [_walks(s) for s in exc.partial],
            "nodes": exc.nodes,
        }
        certificate = None
        code = EXIT_BUDGET
    except (AlgebraError, WalkError, ModuleError, ValueError, OSError) as exc:
        # input errors; an OracleError means a bug and stays a crash
        _write({"command": argv, "error": str(exc)})
        return EXIT_INPUT
    except (TheoremCounterexample, OracleDisagreement) as exc:
        _write({"command": argv, "error": str(exc), "kind": type(exc).__name__})
        return EXIT_VERDICT

    _emit(argv, alg, payload, certificate)
    return code


if __name__ == "__main__":
    sys.exit(main())
