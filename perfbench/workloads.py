"""The three workloads: which operations a pass runs and which inputs the
seed generates for them.

An op is one unit the client waits for.  On `enumerate` and `verify` it is
one cold `python -m mgslab.cli ...` process; on `crosscheck` it is one
library call (a chunk of Hom pairs or one lemma-suite run) inside a fresh
process per pass.  `expect` carries what the verifier needs to know about
the op, never anything the program receives.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

DATA = "tests/data"
BUNDLED_SEQUENCE = f"{DATA}/mgs5_sequence.txt"

# The ROADMAP headline (mgs5, gentle5 at string length 8) plus four small
# algebras whose searches finish.  The budget caps the headline ops at about
# 2 s each so that a run holds several passes; the exact pruning measured
# in the ROADMAP finishes both in fewer nodes (229,566 and 270,281).
ENUMERATE_BUDGET = 500_000
ENUMERATE_OPS = (  # algebra, max string length, expected count or None
    ("mgs5", 8, None),
    ("gentle5", 8, None),
    ("a12tilde", 12, 5),
    ("two_loops", 10, 1),
    ("kronecker", 8, 1),
    ("double_arrows", 8, 0),
)

VERIFY_CHECK_LEN = 16
VERIFY_VARIANT_LEN = 12
VERIFY_DROPS = 3
# Swapped pairs that keep the sequence weakly FHO, and pairs that break it.
# Checking a kept one costs about 60% more, so the mix is fixed and the seed
# picks the pairs; a free mix moved the verify tail by 13% between seeds.
VERIFY_SWAPS_KEEP = 1
VERIFY_SWAPS_BREAK = 2
VERIFY_EXISTS = (("gentle5", "gentle", 10), ("mgs5", "simples", 10),
                 ("a12tilde", "simples", 12))
VERIFY_CONTAINS_LEN = 12

CROSSCHECK_MAX_LEN = 7
# Strings of length <= 7 per algebra, fixed here so that a change which
# enumerates fewer strings cannot pass by checking fewer pairs (19,322).
CROSSCHECK_STRINGS = {"two_loops": 75, "gentle5": 101, "mgs5": 42,
                      "double_arrows": 30, "a12tilde": 24, "kronecker": 16}
CROSSCHECK_CHUNK = 1000
CROSSCHECK_LEMMAS = (("a12tilde", 10), ("two_loops", 10), ("kronecker", 10))

# Fixed per workload so that the reported percentile does not move with the
# number of passes a run fits.  Each lies inside the samples of one op rather
# than between two ops of different cost, where it jumped by 15% from run to
# run, and leaves about ten samples beyond it in a 36-s run at this commit.
# The run records the sample count and the count beyond.
TAIL_PERCENTILE = {"enumerate": 58, "verify": 85, "crosscheck": 90}


def alg_path(name: str) -> str:
    return f"{DATA}/{name}.alg"


@dataclass(frozen=True)
class Op:
    name: str
    kind: str  # enumerate | check | exists | contains | pairs | lemmas
    algebra: str
    argv: tuple[str, ...] = ()
    expect: dict = field(default_factory=dict, compare=False)


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]
    algebras: tuple[str, ...]
    in_process: bool  # crosscheck: one fresh process runs the whole pass
    tail_percentile: int


def read_sequence_lines(path) -> list[str]:
    out = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _enumerate_ops() -> list[Op]:
    ops = []
    for alg, length, count in ENUMERATE_OPS:
        argv = ("mgs", "enumerate", "--algebra", alg_path(alg),
                "--max-string-len", str(length), "--budget", str(ENUMERATE_BUDGET))
        ops.append(Op(f"enumerate:{alg}:L{length}", "enumerate", alg, argv,
                      {"count": count, "budget": ENUMERATE_BUDGET, "max_len": length}))
    return ops


def _check_op(name, seq_path, entries, length, expect) -> Op:
    argv = ("mgs", "check", "--algebra", alg_path("mgs5"),
            "--max-string-len", str(length), "--sequence", seq_path)
    return Op(name, "check", "mgs5", argv,
              dict(expect, entries=entries, max_len=length))


def _swaps_by_fho(bundled) -> tuple[list, list]:
    """Swaps (i, j) of the bundled sequence that keep it weakly FHO, and those
    that break it, decided with the linear-algebra oracle."""
    import check

    ctx = check.Context(0)
    keep, brk = [], []
    for i in range(len(bundled)):
        for j in range(i + 1, len(bundled)):
            entries = list(bundled)
            entries[i], entries[j] = entries[j], entries[i]
            (keep if check.oracle_fho(ctx, "mgs5", entries) else brk).append((i, j))
    return keep, brk


def _verify_ops(rng: random.Random, inputs: Path) -> list[Op]:
    bundled = read_sequence_lines(BUNDLED_SEQUENCE)
    n = len(bundled)
    ops = [_check_op("check:bundled", BUNDLED_SEQUENCE, bundled,
                     VERIFY_CHECK_LEN, {"variant": "bundled"})]
    for k, drop in enumerate(sorted(rng.sample(range(n), VERIFY_DROPS))):
        entries = bundled[:drop] + bundled[drop + 1:]
        path = inputs / f"drop{k}.txt"
        path.write_text("\n".join(entries) + "\n", encoding="utf-8")
        ops.append(_check_op(f"check:drop{drop}", path.as_posix(), entries,
                             VERIFY_VARIANT_LEN,
                             {"variant": "drop", "dropped": bundled[drop],
                              "position": drop}))
    keep, brk = _swaps_by_fho(bundled)
    chosen = rng.sample(keep, VERIFY_SWAPS_KEEP) + rng.sample(brk, VERIFY_SWAPS_BREAK)
    for k, (i, j) in enumerate(sorted(chosen)):
        entries = list(bundled)
        entries[i], entries[j] = entries[j], entries[i]
        path = inputs / f"swap{k}.txt"
        path.write_text("\n".join(entries) + "\n", encoding="utf-8")
        ops.append(_check_op(f"check:swap{i}-{j}", path.as_posix(), entries,
                             VERIFY_VARIANT_LEN, {"variant": "swap"}))
    for alg, method, length in VERIFY_EXISTS:
        argv = ("mgs", "exists", "--algebra", alg_path(alg), "--method", method,
                "--max-string-len", str(length))
        ops.append(Op(f"exists:{alg}:{method}:L{length}", "exists", alg, argv,
                      {"max_len": length}))
    argv = ("mgs", "enumerate", "--algebra", alg_path("mgs5"),
            "--max-string-len", str(VERIFY_CONTAINS_LEN),
            "--contains", BUNDLED_SEQUENCE)
    ops.append(Op(f"contains:mgs5:L{VERIFY_CONTAINS_LEN}", "contains", "mgs5", argv,
                  {"entries": bundled, "max_len": VERIFY_CONTAINS_LEN}))
    return ops


def _crosscheck_ops(seed: int) -> list[Op]:
    ops = []
    for alg, n in CROSSCHECK_STRINGS.items():
        total = n * n
        chunks = math.ceil(total / CROSSCHECK_CHUNK)
        for c in range(chunks):
            size = min(CROSSCHECK_CHUNK, total - c * CROSSCHECK_CHUNK)
            ops.append(Op(f"pairs:{alg}:{c}", "pairs", alg,
                          expect={"chunk": c, "size": size, "strings": n,
                                  "max_len": CROSSCHECK_MAX_LEN,
                                  "order_seed": f"{seed}:{alg}"}))
    for alg, length in CROSSCHECK_LEMMAS:
        ops.append(Op(f"lemmas:{alg}:L{length}", "lemmas", alg,
                      expect={"max_len": length}))
    return ops


def build(name: str, seed: int, inputs: Path) -> Workload:
    """The workload's ops; generated input files go under `inputs`."""
    rng = random.Random(seed)
    if name == "enumerate":
        ops = _enumerate_ops()
    elif name == "verify":
        ops = _verify_ops(rng, inputs)
    elif name == "crosscheck":
        ops = _crosscheck_ops(seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    algebras = tuple(sorted({op.algebra for op in ops}))
    return Workload(name, seed, ops, algebras, name == "crosscheck",
                    TAIL_PERCENTILE[name])
