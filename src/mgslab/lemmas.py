"""Executable property checks for the brick lemmas and the band-square rule.

Each check visits every enumerated instance of its hypothesis inside the
given length bounds and records how many instances were examined, how many
satisfied the hypothesis, and any counterexamples found.  A counterexample
to any of these is a build failure, not data.  Checks that share an instance
family share one sweep over it: one over the (band, brick supported on it)
pairs, with the brick's maximal substrings over the band, and one over the
strings u^k v of each minimal band.  Each check still visits its instances
in the same order, so its tallies do not depend on the sweeps it shares.
Whether a word sits as a quotient or a submodule of another brick is read
from that brick's class sets (``hom_classes``).
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

from .algebra import AlgebraPresentation
from .mgs import BudgetExhausted, build_brick_pools, enumerate_mgs
from .modules import band_module, enumerate_bricks, hom_classes, is_brick, string_module
from .oracle import exists_full_rank_hom, probe_seed, to_explicit
from .words import (
    Walk,
    canonical_string,
    enumerate_bands,
    enumerate_strings,
    is_band,
    is_directed,
    is_minimal_band,
    is_string,
    maximal_w_substrings,
    periodic_factor,
    primitive_root,
    supported_on,
)


class CheckResult(SimpleNamespace):
    """Tallies of one check, filled in as the suite runs."""

    def __init__(self):
        super().__init__(examined=0, satisfied=0, counterexamples=[], mode=None)

    def payload(self) -> dict:
        out = {
            "examined": self.examined,
            "satisfied": self.satisfied,
            "counterexamples": list(self.counterexamples),
        }
        if self.mode:
            out["mode"] = self.mode
        return out


# the band parameters at which the embedding check builds M(w, lambda, N + 1)
_LAMBDAS = (Fraction(1), Fraction(2))

# (report attribute, payload key) of each check, in payload order
_CHECKS = (
    ("sub_or_quotient", "maximal_substring_sub_or_quotient"),
    ("power_factorization", "square_string_power_factorization"),
    ("square_substring_brick", "band_square_substring_brick"),
    ("band_module_embedding", "band_module_embedding"),
    ("square_prefix_nonbrick", "square_prefix_nonbrick"),
    ("extension_brick", "band_extension_brick"),
    ("dual_host_shaped", "dual_host_substring_shaped"),
    ("extension_host_shaped_count", "extension_host_shaped"),
    ("band_square_cross_check", "band_square_cross_check_summary"),
)


class LemmaSuiteReport(SimpleNamespace):
    """One CheckResult per entry of ``_CHECKS``, plus the suite's bounds
    and notes."""

    def __init__(self, bounds: dict):
        super().__init__(bounds=bounds, mgs_budget_exhausted=False, notes=[],
                         **{attr: CheckResult() for attr, _ in _CHECKS})
        self.band_module_embedding.mode = "sampled"

    def payload(self) -> dict:
        return {"bounds": self.bounds,
                **{key: getattr(self, attr).payload() for attr, key in _CHECKS},
                "mgs_budget_exhausted": self.mgs_budget_exhausted,
                "notes": list(self.notes)}

    @property
    def total_counterexamples(self) -> int:
        return sum(len(getattr(self, attr).counterexamples) for attr, _ in _CHECKS)


def _has_square_prefix(u: Walk) -> bool:
    """Whether u starts in u0 u0 for some nonempty u0."""
    return any(u.letters[:m] == u.letters[m : 2 * m] for m in range(1, u.length // 2 + 1))


def _band_power_prefix_strings(w: Walk, max_len: int):
    """Strings u^k v for rotations/inversions u of the band w, k >= 1 and
    proper prefixes v, up to max_len; yields (u, k, v, walk)."""
    for u in w.rotations:
        for k in range(1, max_len // u.length + 1):
            base = u.power(k)
            for plen in range(min(u.length, max_len - k * u.length + 1)):
                v = u.sub(1, plen)
                yield u, k, v, base.concat(v)


def run_lemma_suite(alg: AlgebraPresentation, max_string_len: int,
                    band_bound: int | None = None,
                    mgs_budget: int = 500_000) -> LemmaSuiteReport:
    band_bound = band_bound if band_bound is not None else max_string_len
    pools = build_brick_pools(alg, max_string_len)
    strings = enumerate_strings(alg, max_string_len)
    bricks = [info.walk for info in enumerate_bricks(alg, max_string_len)]
    bands = enumerate_bands(alg, band_bound)
    minimal = [w for w in bands if is_minimal_band(alg, w)]

    report = LemmaSuiteReport({"max_string_len": max_string_len, "band_bound": band_bound,
                               "lambdas": [str(l) for l in _LAMBDAS]})

    if not bands:
        report.notes.append("no bands within bounds; band lemmas are vacuous")

    # --- sweep 1: each band w and each brick gamma supported on w
    for w in bands:
        for gamma in bricks:
            # gamma is supported on w iff it has a maximal w-substring
            maximal = maximal_w_substrings(gamma, w)
            if not maximal:
                continue

            # maximal w-substrings of bricks are submodules or quotients
            chk = report.sub_or_quotient
            for m in maximal:
                chk.examined += 1
                chk.satisfied += 1
                if not (m.submodule or m.quotient):
                    chk.counterexamples.append(
                        f"M({m.word}) inside brick M({gamma}) is neither"
                        " submodule nor quotient"
                    )

            # maximal substrings carved from a band square stay bricks
            chk = report.square_substring_brick
            if any(m.power >= 2 for m in maximal):
                for m in maximal:
                    chk.examined += 1
                    if m.power < 2:
                        continue
                    chk.satisfied += 1
                    if not is_brick(alg, m.word):
                        chk.counterexamples.append(
                            f"maximal substring {m.word} of brick {gamma} over {w}^2"
                            " is not a brick"
                        )

            # bricks periodic over a band embed in or surject from M(w,l,N+1)
            chk = report.band_module_embedding
            u = next((m.band for m in maximal if m.word.length == gamma.length), None)
            if u is not None:
                chk.examined += 1
                chk.satisfied += 1
                N = -(-gamma.length // w.length)
                gamma_rep = to_explicit(string_module(alg, gamma))
                for lam in _LAMBDAS:
                    B = to_explicit(band_module(alg, u, lam, N + 1))
                    seed = probe_seed(alg, "band-embedding", str(gamma), str(u), str(lam))
                    if not (exists_full_rank_hom(gamma_rep, B, "inj", seed)
                            or exists_full_rank_hom(B, gamma_rep, "surj", seed + 1)):
                        chk.counterexamples.append(
                            f"brick {gamma} neither embeds in nor is a quotient of"
                            f" M({u}, {lam}, {N + 1})"
                        )

            # dual-host instances: k = 1 maximal substrings over a minimal
            # band that are also quotients/submodules of a second brick
            chk = report.dual_host_shaped
            if w in minimal:
                for m in maximal:
                    if m.power != 1:
                        continue
                    if not (m.submodule or m.quotient):
                        continue
                    other = _find_second_host(alg, m.word, gamma, bricks, m.submodule)
                    if other is None:
                        continue
                    chk.examined += 1
                    chk.satisfied += 1
                    if not is_brick(alg, m.word):
                        chk.counterexamples.append(
                            f"dual-host substring {m.word} in {gamma} and {other} is not a brick"
                        )

    # --- undirected strings whose square is a string are band powers
    chk = report.power_factorization
    for u in strings:
        if u.length < 1 or not u.is_cyclic or is_directed(u):
            continue
        chk.examined += 1
        if not is_string(alg, u.power(2)):
            continue
        chk.satisfied += 1
        root = primitive_root(u)
        if not is_band(alg, root):
            chk.counterexamples.append(f"{u} has square-string but root {root} is not a band")
            continue
        if root.length > band_bound or not any(
            root.length == b.length and periodic_factor(root.letters, b) is not None
            for b in bands
        ):
            chk.counterexamples.append(f"band root {root} missing from enumerated pool")

    # --- sweep 2: each minimal band w and each string u^k v over it
    for w in minimal:
        for u, k, v, walk in _band_power_prefix_strings(w, max_string_len):
            brick = is_brick(alg, walk)

            # a square prefix of the band forces non-brick powers
            chk = report.square_prefix_nonbrick
            chk.examined += 1
            if _has_square_prefix(u):
                chk.satisfied += 1
                if brick:
                    chk.counterexamples.append(
                        f"{walk} = {u}^{k} {v} with square-prefixed band is a brick"
                    )

            # prepending another band copy to a brick u^k v, k >= 2, keeps a brick
            chk = report.extension_brick
            if k >= 2:
                chk.examined += 1
                if brick:
                    chk.satisfied += 1
                    if not is_brick(alg, u.concat(walk)):
                        chk.counterexamples.append(
                            f"M({u} {walk}) lost brickhood, from brick {u}^{k} {v}"
                        )
            if not brick:
                continue

            # extension-host instances: brick u^k v sub/quotient of a brick z
            # supported one band power higher
            chk = report.extension_host_shaped_count
            key = canonical_string(walk).key()
            if not any(
                z.length > walk.length and periodic_factor(z.letters, w) is not None
                and supported_on(z, u, k + 1)
                and any(key in side for side in hom_classes(alg, z))
                for z in bricks
            ):
                continue
            chk.examined += 1
            chk.satisfied += 1
            if not is_brick(alg, u.concat(walk)):
                chk.counterexamples.append(
                    f"extension-host case: extending brick {walk} by {u} lost brickhood"
                )

    # --- no emitted maximal green sequence touches a band square
    chk = report.band_square_cross_check
    square_pool = [b for b in bands if b.length <= max_string_len // 2]
    try:
        result = enumerate_mgs(alg, pools, budget=mgs_budget)
        sequences = result.sequences
    except BudgetExhausted as exc:
        sequences = exc.partial
        report.mgs_budget_exhausted = True
        report.notes.append(f"mgs enumeration exhausted budget at {exc.nodes} nodes")
    for seq in sequences:
        for entry in seq:
            chk.examined += 1
            chk.satisfied += 1
            for b in square_pool:
                if supported_on(entry, b, 2):
                    chk.counterexamples.append(
                        f"entry {entry} of an emitted sequence is supported on {b}^2"
                    )
    if not sequences:
        report.notes.append("no maximal green sequences emitted within bounds")

    return report


def _find_second_host(alg: AlgebraPresentation, word: Walk, gamma: Walk, bricks,
                      want_quotient: bool):
    """A brick other than gamma of which word is a quotient (or a
    submodule).  Bricks are canonical, so this also passes over gamma^-1."""
    key = canonical_string(word).key()
    for cand in bricks:
        if cand != gamma and key in hom_classes(alg, cand)[0 if want_quotient else 1]:
            return cand
    return None
