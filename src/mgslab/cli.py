"""Command-line front end.

Every subcommand prints a single JSON document: command echo, a content
fingerprint of the normalized algebra, the payload, and a certificate block
naming pool bounds where one applies.  All numbers are exact (integers, or
rationals as strings).  Exit codes: 0 success (and, for ``mgs check``, a
complete-relative verdict); 1 negative verdict or theorem-check failure;
2 usage error; 3 algebra or input error; 4 budget exhausted (partial
payload still printed); 141 the reader closed standard output early
(128 + SIGPIPE), with nothing on standard error.

A cold command pays for little besides its own work.  A handler imports
the modules it uses when it runs, so ``validate`` loads the presentation
and its axioms only, not the Hom machinery.  Only the argparse parsers on
the command's path are built (:func:`build_parser`); help, and argv
that names no complete path or that those parsers refuse, are parsed again
by the whole tree, so every help text and usage error is the whole tree's.
The algebra fingerprint is hashed with CPython's built-in SHA-256
(:func:`mgslab.algebra.sha256`), so no command loads hashlib and OpenSSL.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import AlgebraError, load_algebra, validate_axioms, vertex_arrow_count

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4
EXIT_PIPE = 141
PIPE_BUF = 4096  # the largest write that Linux keeps whole on a pipe


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
    # the encoder's pieces are gathered and written in slices of PIPE_BUF
    # (4,096) characters, then the remainder with the newline.  The document
    # is ASCII, so each slice is one atomic pipe write: it lands whole or
    # raises BrokenPipeError, on buffered and unbuffered stdout alike
    pending = ""
    try:
        for piece in json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc):
            pending += piece
            while len(pending) >= PIPE_BUF:
                sys.stdout.write(pending[:PIPE_BUF])
                pending = pending[PIPE_BUF:]
        sys.stdout.write(pending + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so
        # that the interpreter's final flush is silent, and exit as SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(EXIT_PIPE)


def _emit(args_echo, alg, payload, certificate=None) -> None:
    _write({
        "command": args_echo,
        "algebra_fingerprint": alg.fingerprint,
        "payload": payload,
        "certificate": certificate,
    })


# options whose value is a number, which may be negative
_NUMBER_OPTIONS = ("--lam", "--band1", "--band2")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write ``--lam -1/2`` as ``--lam=-1/2``: argparse reads a value that
    starts with '-' as an option unless it is a plain negative decimal."""
    out = []
    for tok in argv:
        if tok[:1] == "-" and tok[1:2].isdigit() and out and out[-1] in _NUMBER_OPTIONS:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _fraction(text: str):
    from fractions import Fraction

    from .words import WalkError

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise WalkError(f"bad number {text!r}: {exc}")


def _read_sequence(alg, path) -> tuple:
    from .words import parse_walk

    entries = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                entries.append(parse_walk(alg, line))
    return tuple(entries)


def _count(text: str) -> int:
    """argparse type of bounds and budgets: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


# the --band-len of the mgs commands
_BAND_LEN_HELP = ("longest band whose band bricks enter the insertion pool"
                  " (default: the string length); a shorter bound can pass"
                  " a non-maximal chain as complete")


class _PathRefused(Exception):
    """A usage error met by a parser built for one command path only."""


class _PathParser(argparse.ArgumentParser):
    """A parser of one command path, which leaves every usage error to the
    whole tree: its own help and usage lines would name only that path."""

    def error(self, message):
        raise _PathRefused(message)


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser | None:
    """The argument parser of every command, or, given argv, of the command
    path its leading words name: at each level only the subparser named
    (for ``mgs check``, 3 parsers instead of 17).  Returns None if argv's
    leading words name no complete path.  The path parser raises
    ``_PathRefused`` instead of reporting a usage error."""
    words = None if argv is None else tuple(argv[:2])
    unnamed = 0  # subcommand groups in which the words name no subparser

    def group(parser, dest):
        nonlocal unnamed
        unnamed += 1
        return parser.add_subparsers(dest=dest, required=True)

    def add(sub, *path, **kwargs):
        # the subparser of command path, unless argv names another
        nonlocal unnamed
        if words is not None:
            if words[:len(path)] != path:
                return None
            unnamed -= 1
        return sub.add_parser(path[-1], **kwargs)

    p = (argparse.ArgumentParser if words is None else _PathParser)(prog="mgslab")
    sub = group(p, "cmd")

    def alg_arg(sp):
        sp.add_argument("--algebra", required=True, help="algebra file")

    if sp := add(sub, "validate", help="string/gentle axiom report"):
        alg_arg(sp)

    if sp := add(sub, "strings", help="enumerate strings up to a length"):
        alg_arg(sp)
        sp.add_argument("--max-len", type=_count, required=True)

    if sp := add(sub, "bands", help="enumerate band classes up to a length"):
        alg_arg(sp)
        sp.add_argument("--max-len", type=_count, required=True)

    if sp := add(sub, "module", help="string or band module representations"):
        msub = group(sp, "module_cmd")
        if ms := add(msub, "module", "show", help="string module with ASCII diagram"):
            alg_arg(ms)
            ms.add_argument("walk")
        if mb := add(msub, "module", "band", help="band module M(w, lambda, k)"):
            alg_arg(mb)
            mb.add_argument("walk")
            mb.add_argument("--lam", default="1")
            mb.add_argument("--k", type=int, default=1)

    if sp := add(sub, "hom", help="Hom dimension, combinatorial and oracle"):
        alg_arg(sp)
        sp.add_argument("source")
        sp.add_argument("target")

    if sp := add(sub, "bricks", help="enumerate string bricks"):
        alg_arg(sp)
        sp.add_argument("--max-len", type=_count, required=True)

    if sp := add(sub, "oracle", help="linear-algebra oracle"):
        osub = group(sp, "oracle_cmd")
        if oh := add(osub, "oracle", "hom", help="intertwiner-space dimension"):
            alg_arg(oh)
            oh.add_argument("source")
            oh.add_argument("target")
            oh.add_argument("--band1", default=None, help="treat source as band, M(w, LAM, 1)")
            oh.add_argument("--band2", default=None, help="treat target as band, M(w, LAM, 1)")

    if sp := add(sub, "mgs", help="maximal green sequences"):
        gsub = group(sp, "mgs_cmd")

        def pool_args(spp):
            spp.add_argument("--max-string-len", type=_count, required=True)
            spp.add_argument("--band-len", type=_count, default=None, help=_BAND_LEN_HELP)

        if ge := add(gsub, "mgs", "enumerate", help="enumerate complete sequences"):
            alg_arg(ge)
            pool_args(ge)
            ge.add_argument("--budget", type=_count, default=None)
            ge.add_argument("--contains", default=None,
                            help="sequence file; restrict to sequences containing"
                                 " these entries in this relative order")
        if gc := add(gsub, "mgs", "check", help="verify a sequence file"):
            alg_arg(gc)
            pool_args(gc)
            gc.add_argument("--sequence", required=True)
        if gx := add(gsub, "mgs", "exists", help="existence constructions"):
            alg_arg(gx)
            gx.add_argument("--method", choices=("simples", "gentle"), required=True)
            gx.add_argument("--max-string-len", type=_count, default=8)
            gx.add_argument("--band-len", type=_count, default=None, help=_BAND_LEN_HELP)
            gx.add_argument("--budget", type=_count, default=None)

    if sp := add(sub, "lemmas", help="lemma property suite"):
        lsub = group(sp, "lemmas_cmd")
        if lr := add(lsub, "lemmas", "run"):
            alg_arg(lr)
            lr.add_argument("--max-len", type=_count, required=True)
            lr.add_argument("--band-len", type=_count, default=None,
                            help="longest band the band lemmas sweep (default: --max-len)")
            lr.add_argument("--budget", type=_count, default=500_000)

    return p if words is None or not unnamed else None


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv with the parsers of its command path only.  Help, and any
    argv that names no complete path or that those parsers refuse, go to
    the whole tree, which prints every help text and usage error."""
    if not {"-h", "--help"} & set(argv) and (parser := build_parser(argv)):
        try:
            return parser.parse_args(argv)
        except _PathRefused:
            pass
    return build_parser().parse_args(argv)


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
    from .words import enumerate_strings

    return {"max_len": args.max_len,
            "strings": _walks(enumerate_strings(alg, args.max_len))}, None


def _cmd_bands(alg, args):
    from .words import enumerate_bands, is_minimal_band

    return {
        "max_len": args.max_len,
        "bands": [{"band": str(w), "minimal": is_minimal_band(alg, w)}
                  for w in enumerate_bands(alg, args.max_len)],
    }, None


def _cmd_module(alg, args):
    from .modules import band_module, string_module, top_socle
    from .oracle import to_explicit
    from .words import parse_walk

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
    B = band_module(alg, w, _fraction(args.lam), args.k)
    payload = {"walk": str(w), "lambda": args.lam, "k": args.k}
    payload.update(_mat_payload(to_explicit(B)))
    return payload, None


def _cmd_hom(alg, args):
    from .modules import hom_dim, string_module
    from .oracle import hom_dim_linalg, to_explicit
    from .words import parse_walk

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
    from .modules import enumerate_bricks

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
    from .modules import band_module, string_module
    from .oracle import hom_dim_linalg, to_explicit
    from .words import parse_walk

    def rep(text, band_lam):
        w = parse_walk(alg, text)
        if band_lam is not None:
            return to_explicit(band_module(alg, w, _fraction(band_lam), 1))
        return to_explicit(string_module(alg, w))

    A = rep(args.source, args.band1)
    B = rep(args.target, args.band2)
    return {"source": args.source, "target": args.target,
            "oracle_dim": hom_dim_linalg(A, B)}, None


def _pools_for(alg, args):
    from .mgs import build_brick_pools

    return build_brick_pools(alg, args.max_string_len, band_bound=args.band_len)


def _cmd_mgs(alg, args):
    from .mgs import (
        HomTable,
        complete_from_prefix,
        domestic_gentle_order,
        enumerate_mgs,
        is_complete_relative,
        is_weakly_fho,
        simple_order_socle_first,
    )
    from .words import enumerate_bands

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
            "notes": [],
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
    pools = _pools_for(alg, args)
    bands = enumerate_bands(alg, pools.band_bound)
    if args.method == "simples":
        res = simple_order_socle_first(alg, bands)
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
        res = domestic_gentle_order(alg, bands)
        payload = {
            "method": "gentle",
            "chunks": [list(c) for c in res.chunks],
            "order": list(res.order),
        }
        order = res.order
    completed = complete_from_prefix(alg, pools, order, budget=args.budget)
    payload["completed"] = None if completed is None else _walks(completed)
    return payload, pools.descriptor()


def _cmd_lemmas(alg, args):
    from .lemmas import run_lemma_suite

    report = run_lemma_suite(
        alg, args.max_len, band_bound=args.band_len, mgs_budget=args.budget
    )
    payload = report.payload()
    return payload, {"max_len": args.max_len, "band_bound": report.bounds["band_bound"]}


def _loaded(*names: str) -> tuple:
    """The exception classes ``module.Class`` named whose module is loaded:
    a module that is not loaded has raised none of its own."""
    out = []
    for name in names:
        module, cls = name.split(".")
        mod = sys.modules.get(f"{__package__}.{module}")
        if mod is not None:
            out.append(getattr(mod, cls))
    return tuple(out)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(_attach_negative_values(argv))
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
        # validate reports the axioms; every other command needs them to hold
        if args.cmd != "validate" and not (report := validate_axioms(alg)).is_string_algebra:
            raise AlgebraError("not a string algebra: " + "; ".join(
                f"{t}: {w}" for t, w in report.violations))
        out = handlers[args.cmd](alg, args)
        if len(out) == 3:
            payload, certificate, code = out
        else:
            payload, certificate = out
    # an except clause is evaluated only when an exception reaches it
    except _loaded("mgs.BudgetExhausted") as exc:
        payload = {
            "error": str(exc),
            "budget_exhausted": True,
            "partial_sequences": [_walks(s) for s in exc.partial],
            "nodes": exc.nodes,
        }
        certificate = None
        code = EXIT_BUDGET
    except (AlgebraError, ValueError, OSError,
            *_loaded("words.WalkError", "modules.ModuleError")) as exc:
        # input errors; an OracleError means a bug and stays a crash
        _write({"command": argv, "error": str(exc)})
        return EXIT_INPUT
    except _loaded("mgs.TheoremCounterexample") as exc:
        _write({"command": argv, "error": str(exc), "kind": type(exc).__name__})
        return EXIT_VERDICT

    _emit(argv, alg, payload, certificate)
    return code


if __name__ == "__main__":
    sys.exit(main())
