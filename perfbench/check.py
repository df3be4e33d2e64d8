"""Output verifier.  Every Hom it needs comes from the linear-algebra oracle
(`to_explicit` + `hom_dim_linalg`), not from the substring calculus that the
CLI's verdicts rest on; `is_weakly_fho` and `is_complete_relative` are used
only where the certification itself is what is being re-run.

`verify_op(op, stdout, code, ctx)` returns `(examined, failures)`.  A check
that examined nothing is itself reported as a failure.
"""

from __future__ import annotations

import json
import random

from workloads import BUNDLED_SEQUENCE, alg_path, read_sequence_lines

LAMBDAS = ("1", "2")  # the CLI default `--lambda 1,2`
SPOT_LEN = 6  # string bricks up to this length are re-tried on complete verdicts
SAMPLE = 2  # emitted sequences certified per enumerate op


class Context:
    """Algebras, oracle representations and pools, cached across ops."""

    def __init__(self, seed: int):
        from fractions import Fraction

        from mgslab.algebra import load_algebra

        self.rng = random.Random(f"verify:{seed}")
        self.lambdas = tuple(Fraction(x) for x in LAMBDAS)
        self._load = load_algebra
        self._algs: dict = {}
        self._reps: dict = {}
        self._homs: dict = {}
        self._pools: dict = {}
        self._spot: dict = {}

    def alg(self, name):
        if name not in self._algs:
            self._algs[name] = self._load(alg_path(name))
        return self._algs[name]

    def walk(self, name, text):
        from mgslab.words import parse_walk

        return parse_walk(self.alg(name), text)

    def _rep(self, name, w, lam):
        from mgslab.modules import band_module, string_module
        from mgslab.oracle import to_explicit

        key = (name, w.key(), lam)
        if key not in self._reps:
            alg = self.alg(name)
            mod = string_module(alg, w) if lam is None else band_module(alg, w, lam, 1)
            self._reps[key] = to_explicit(mod)
        return self._reps[key]

    def hom(self, name, a, b, lam_a=None, lam_b=None) -> int:
        from mgslab.oracle import hom_dim_linalg

        key = (name, a.key(), lam_a, b.key(), lam_b)
        if key not in self._homs:
            self._homs[key] = hom_dim_linalg(self._rep(name, a, lam_a),
                                             self._rep(name, b, lam_b))
        return self._homs[key]

    def pools(self, name, max_len):
        from mgslab.mgs import build_brick_pools

        key = (name, max_len)
        if key not in self._pools:
            self._pools[key] = build_brick_pools(self.alg(name), max_len,
                                                 lambdas=self.lambdas)
        return self._pools[key]

    def spot_bricks(self, name):
        """String bricks of length <= SPOT_LEN, brickhood by the oracle."""
        from mgslab.words import enumerate_strings

        if name not in self._spot:
            self._spot[name] = [w for w in enumerate_strings(self.alg(name), SPOT_LEN)
                                if self.hom(name, w, w) == 1]
        return self._spot[name]


class Report:
    def __init__(self):
        self.examined = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str):
        self.examined += 1
        if not ok:
            self.failures.append(message)
        return ok


def _canon(ctx, name, text):
    from mgslab.words import canonical_string

    return str(canonical_string(ctx.walk(name, text)))


def oracle_fho(ctx, name, texts) -> bool:
    """Hom(M_i, M_j) = 0 for all i < j, by the oracle."""
    ws = [ctx.walk(name, t) for t in texts]
    return all(ctx.hom(name, ws[i], ws[j]) == 0
               for i in range(len(ws)) for j in range(i + 1, len(ws)))


def _insertable(ctx, name, entries, brick, p, lam=None) -> bool:
    """Hom(e_i, brick) = 0 for i <= p and Hom(brick, e_i) = 0 for i > p."""
    ws = [ctx.walk(name, t) for t in entries]
    return (all(ctx.hom(name, e, brick, None, lam) == 0 for e in ws[:p])
            and all(ctx.hom(name, brick, e, lam, None) == 0 for e in ws[p:]))


def _gaps(ctx, name, entries, brick) -> list[int]:
    return [p for p in range(len(entries) + 1)
            if _insertable(ctx, name, entries, brick, p)]


def _check_witness(ctx, rep, name, entries, witness):
    brick = ctx.walk(name, witness["brick"])
    p = witness["position"]
    lams = ctx.lambdas if witness["is_band_brick"] else (None,)
    if not rep.expect(isinstance(p, int) and 0 <= p <= len(entries),
                      f"witness position {p} out of range"):
        return
    if not witness["is_band_brick"]:
        rep.expect(_canon(ctx, name, witness["brick"])
                   not in {_canon(ctx, name, e) for e in entries},
                   f"witness {witness['brick']} is already an entry")
    for lam in lams:
        rep.expect(ctx.hom(name, brick, brick, lam, lam) == 1,
                   f"witness {witness['brick']} (lambda {lam}) is not a brick")
        rep.expect(_insertable(ctx, name, entries, brick, p, lam),
                   f"witness {witness['brick']} (lambda {lam}) is not insertable at {p}")


def _check_complete(ctx, rep, name, entries):
    """Re-try every small string brick at every gap with oracle Homs."""
    present = {_canon(ctx, name, e) for e in entries}
    for w in ctx.spot_bricks(name):
        if str(w) in present:
            continue
        gaps = _gaps(ctx, name, entries, w)
        rep.expect(not gaps, f"'complete' sequence refined by {w} at gap {gaps[:1]}")


def _certify(ctx, rep, name, seq, max_len):
    """An emitted sequence: all simples, FHO by the oracle and by the library,
    complete relative to the pools by the library's certifier."""
    from mgslab.mgs import HomTable, is_complete_relative, is_weakly_fho

    alg = ctx.alg(name)
    simples = {t[2:] for t in seq if t.startswith("e:")}
    rep.expect(simples == set(alg.vertices), f"{seq} misses simples")
    rep.expect(oracle_fho(ctx, name, seq), f"{seq} is not FHO by the oracle")
    walks = [ctx.walk(name, t) for t in seq]
    table = HomTable(alg)
    rep.expect(is_weakly_fho(alg, walks, table), f"{seq} is not weakly FHO")
    verdict = is_complete_relative(alg, walks, ctx.pools(name, max_len), table)
    rep.expect(verdict.kind == "complete", f"{seq} certifies as {verdict.kind}")


def _enumerate(op, payload, code, ctx, rep):
    ex = op.expect
    if payload.get("budget_exhausted"):
        rep.expect(ex["count"] is None, "a search expected to finish exhausted its budget")
        rep.expect(code == 4, f"exit code {code} on budget exhaustion")
        rep.expect(payload["nodes"] == ex["budget"] + 1,
                   f"exhausted after {payload['nodes']} nodes, budget {ex['budget']}")
        seqs = payload["partial_sequences"]
    else:
        seqs = payload["sequences"]
        rep.expect(code == 0, f"exit code {code}")
        rep.expect(payload["count"] == len(seqs), "count differs from the sequence list")
        if ex["count"] is not None:
            rep.expect(len(seqs) == ex["count"],
                       f"{len(seqs)} sequences, expected {ex['count']}")
        else:
            rep.expect(len(seqs) > 0, "a finished headline search emitted nothing")
    for seq in ctx.rng.sample(seqs, min(SAMPLE, len(seqs))):
        _certify(ctx, rep, op.algebra, seq, ex["max_len"])


def _check(op, payload, code, ctx, rep):
    ex, name = op.expect, op.algebra
    entries = ex["entries"]
    rep.expect(payload["entries"] == [str(ctx.walk(name, e)) for e in entries],
               "entries differ from the input file")
    fho = oracle_fho(ctx, name, entries)
    rep.expect(payload["weakly_fho"] == fho,
               f"weakly_fho {payload['weakly_fho']}, oracle says {fho}")
    verdict = payload["verdict"]
    if not payload["weakly_fho"]:
        rep.expect(verdict is None and code == 1, "verdict on a non-FHO sequence")
        return
    if not rep.expect(verdict is not None, "FHO sequence without a verdict"):
        return
    kind = verdict["kind"]
    rep.expect(code == (0 if kind == "complete" else 1), f"exit code {code} for {kind}")
    if ex["variant"] == "bundled":
        rep.expect(kind == "complete", f"bundled sequence judged {kind}")
    if ex["variant"] == "drop":
        dropped = ctx.walk(name, ex["dropped"])
        rep.expect(_insertable(ctx, name, entries, dropped, ex["position"]),
                   "the dropped entry does not re-insert at its position")
        rep.expect(kind == "refinable", f"sequence with a dropped entry judged {kind}")
    if kind == "refinable":
        if rep.expect(verdict["witness"] is not None, "refinable without a witness"):
            _check_witness(ctx, rep, name, entries, verdict["witness"])
    elif kind == "complete":
        _check_complete(ctx, rep, name, entries)
    else:
        rep.expect(False, f"verdict {kind}")


def _exists(op, payload, code, ctx, rep):
    rep.expect(code == 0, f"exit code {code}")
    seq = payload["completed"]
    if not rep.expect(seq is not None, "no sequence completed from the simple order"):
        return
    simples = [t[2:] for t in seq if t.startswith("e:")]
    order = [v for v in payload["order"] if v in simples]
    rep.expect(simples == order, f"simples {simples} do not follow the order {order}")
    _certify(ctx, rep, op.algebra, seq, op.expect["max_len"])


def _contains(op, payload, code, ctx, rep):
    rep.expect(code == 0, f"exit code {code}")
    name = op.algebra
    bundled = [_canon(ctx, name, e) for e in read_sequence_lines(BUNDLED_SEQUENCE)]
    seqs = payload["sequences"]
    rep.expect(any([_canon(ctx, name, t) for t in s] == bundled for s in seqs),
               "the bundled sequence is missing from the --contains result")
    for s in seqs:
        canon = iter(_canon(ctx, name, t) for t in s)
        rep.expect(all(e in canon for e in bundled),
                   f"{s} does not contain the required entries in order")
    for seq in ctx.rng.sample(seqs, min(SAMPLE, len(seqs))):
        _certify(ctx, rep, name, seq, op.expect["max_len"])


def _pairs(op, record, ctx, rep):
    ex = op.expect
    rep.expect(record["strings"] == ex["strings"],
               f"{record['strings']} strings, expected {ex['strings']}")
    rep.expect(record["examined"] == ex["size"],
               f"{record['examined']} pairs compared, expected {ex['size']}")
    for m in record["mismatches"][:5]:
        rep.expect(False, m)
    rep.examined += record["examined"]


def _lemmas(op, record, ctx, rep):
    rep.expect(record["counterexamples"] == 0,
               f"{record['counterexamples']} lemma counterexamples")
    rep.expect(record["examined"] > 0, "the lemma suite examined nothing")
    rep.examined += record["examined"]


def verify_op(op, output, code, ctx) -> tuple[int, list[str]]:
    """`output` is the CLI's stdout (bytes) or, in process, the op record."""
    rep = Report()
    try:
        if op.kind in ("pairs", "lemmas"):
            {"pairs": _pairs, "lemmas": _lemmas}[op.kind](op, output, ctx, rep)
        else:
            payload = json.loads(output)["payload"]
            handler = {"enumerate": _enumerate, "check": _check,
                       "exists": _exists, "contains": _contains}[op.kind]
            handler(op, payload, code, ctx, rep)
    except Exception as exc:  # a malformed output is a failed op, not a crash
        rep.failures.append(f"verifier could not read the output: {exc!r}")
    if rep.examined == 0:
        rep.failures.append("the check examined nothing")
    return rep.examined, rep.failures
