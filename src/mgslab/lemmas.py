"""Executable property checks for the brick lemmas and the band-square rule.

Each check sweeps every enumerated instance of its hypothesis inside the
given length bounds and records how many instances were examined, how many
satisfied the hypothesis, and any counterexamples found.  A counterexample
to any of these is a build failure, not data.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

from .algebra import AlgebraPresentation
from .mgs import BudgetExhausted, build_brick_pools, enumerate_mgs
from .modules import band_module, enumerate_bricks, is_brick, string_module
from .oracle import exists_full_rank_hom, probe_seed, to_explicit
from .words import (
    Walk,
    enumerate_bands,
    enumerate_strings,
    is_band,
    is_directed,
    is_string,
    maximal_w_substrings,
    periodic_factor,
    primitive_root,
    substring_occurrences,
    supported_on,
)


class CheckResult(SimpleNamespace):
    """Tallies of one check, filled in as the suite runs."""

    def __init__(self, examined: int = 0, satisfied: int = 0,
                 counterexamples: list[str] | None = None, mode: str | None = None):
        super().__init__(
            examined=examined, satisfied=satisfied,
            counterexamples=[] if counterexamples is None else counterexamples, mode=mode)

    def payload(self) -> dict:
        out = {
            "examined": self.examined,
            "satisfied": self.satisfied,
            "counterexamples": list(self.counterexamples),
        }
        if self.mode:
            out["mode"] = self.mode
        return out


class LemmaSuiteReport(SimpleNamespace):
    """One CheckResult per check, plus the suite's bounds and notes."""

    def __init__(self, bounds: dict,
                 sub_or_quotient: CheckResult,         # maximal band substrings of bricks
                 power_factorization: CheckResult,     # undirected u with u^2 a string
                 square_substring_brick: CheckResult,  # maximal substrings over band squares
                 band_module_embedding: CheckResult,   # bricks inside M(w, lambda, N+1)
                 square_prefix_nonbrick: CheckResult,  # u = u0^2 u' forces non-brick
                 extension_brick: CheckResult,         # adding a band copy keeps brickhood
                 dual_host_shaped: CheckResult,
                 extension_host_shaped_count: CheckResult,
                 band_square_cross_check: CheckResult,
                 mgs_budget_exhausted: bool = False, notes: list[str] | None = None):
        super().__init__(
            bounds=bounds, sub_or_quotient=sub_or_quotient,
            power_factorization=power_factorization, square_substring_brick=square_substring_brick,
            band_module_embedding=band_module_embedding,
            square_prefix_nonbrick=square_prefix_nonbrick, extension_brick=extension_brick,
            dual_host_shaped=dual_host_shaped,
            extension_host_shaped_count=extension_host_shaped_count,
            band_square_cross_check=band_square_cross_check,
            mgs_budget_exhausted=mgs_budget_exhausted, notes=[] if notes is None else notes)

    def payload(self) -> dict:
        return {
            "bounds": self.bounds,
            "maximal_substring_sub_or_quotient": self.sub_or_quotient.payload(),
            "square_string_power_factorization": self.power_factorization.payload(),
            "band_square_substring_brick": self.square_substring_brick.payload(),
            "band_module_embedding": self.band_module_embedding.payload(),
            "square_prefix_nonbrick": self.square_prefix_nonbrick.payload(),
            "band_extension_brick": self.extension_brick.payload(),
            "dual_host_substring_shaped": self.dual_host_shaped.payload(),
            "extension_host_shaped": self.extension_host_shaped_count.payload(),
            "band_square_cross_check_summary": self.band_square_cross_check.payload(),
            "mgs_budget_exhausted": self.mgs_budget_exhausted,
            "notes": list(self.notes),
        }

    @property
    def total_counterexamples(self) -> int:
        return sum(len(c.counterexamples) for c in vars(self).values()
                   if isinstance(c, CheckResult))


def _square_prefix(u: Walk) -> Walk | None:
    """Smallest nonempty u0 with u starting in u0 u0, if any."""
    for m in range(1, u.length // 2 + 1):
        if u.letters[:m] == u.letters[m : 2 * m]:
            return u.sub(1, m)
    return None


def _band_power_prefix_strings(alg, w: Walk, max_len: int, min_k: int = 1):
    """Strings u^k v for rotations/inversions u of the band w and proper
    prefixes v, up to max_len; yields (u, k, v, walk)."""
    for u in w.rotations:
        k = min_k
        while k * u.length <= max_len:
            base = u.power(k)
            for plen in range(u.length):
                if k * u.length + plen > max_len:
                    break
                v = u.sub(1, plen)
                walk = base.concat(v)
                yield u, k, v, walk
            k += 1


def run_lemma_suite(alg: AlgebraPresentation, max_string_len: int,
                    band_bound: int | None = None,
                    lambdas=(Fraction(1), Fraction(2)),
                    mgs_budget: int = 500_000,
                    certified: bool = False) -> LemmaSuiteReport:
    band_bound = band_bound if band_bound is not None else max_string_len
    lambdas = tuple(Fraction(l) for l in lambdas)
    strings = enumerate_strings(alg, max_string_len)
    bricks = [info.walk for info in enumerate_bricks(alg, max_string_len)]
    band_records = enumerate_bands(alg, band_bound)
    bands = [r.canonical for r in band_records]
    minimal_bands = [r.canonical for r in band_records if r.is_minimal]

    report = LemmaSuiteReport(
        bounds={
            "max_string_len": max_string_len,
            "band_bound": band_bound,
            "lambdas": [str(l) for l in lambdas],
        },
        sub_or_quotient=CheckResult(),
        power_factorization=CheckResult(),
        square_substring_brick=CheckResult(),
        band_module_embedding=CheckResult(mode="certified" if certified else "sampled"),
        square_prefix_nonbrick=CheckResult(),
        extension_brick=CheckResult(),
        dual_host_shaped=CheckResult(),
        extension_host_shaped_count=CheckResult(),
        band_square_cross_check=CheckResult(),
    )

    if not bands:
        report.notes.append("no bands within bounds; band lemmas are vacuous")

    # --- maximal w-substrings of bricks are submodules or quotients
    chk = report.sub_or_quotient
    for w in bands:
        for gamma in bricks:
            if not supported_on(gamma, w, 1):
                continue
            for m in maximal_w_substrings(gamma, w):
                chk.examined += 1
                chk.satisfied += 1
                occ = m.occurrence
                if not (occ.is_submodule_occurrence or occ.is_quotient_occurrence):
                    chk.counterexamples.append(
                        f"M({m.word}) inside brick M({gamma}) is neither"
                        " submodule nor quotient"
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

    # --- maximal substrings carved from a band square stay bricks
    chk = report.square_substring_brick
    for w in bands:
        for gamma in bricks:
            if not supported_on(gamma, w, 2):
                continue
            for m in maximal_w_substrings(gamma, w):
                chk.examined += 1
                if m.power < 2:
                    continue
                chk.satisfied += 1
                if not is_brick(alg, m.word):
                    chk.counterexamples.append(
                        f"maximal substring {m.word} of brick {gamma} over {w}^2"
                        " is not a brick"
                    )

    # --- bricks periodic over a band embed in or surject from M(w,l,N+1)
    chk = report.band_module_embedding
    for w in bands:
        for eps in bricks:
            if eps.length < w.length or not supported_on(eps, w, 1):
                continue
            u = periodic_factor(eps.letters, w)
            if u is None:
                continue
            chk.examined += 1
            chk.satisfied += 1
            N = -(-eps.length // w.length)
            eps_rep = to_explicit(string_module(alg, eps))
            for lam in lambdas:
                B = to_explicit(band_module(alg, u, lam, N + 1))
                seed = probe_seed(alg, "band-embedding", str(eps), str(u), str(lam))
                embeds = exists_full_rank_hom(eps_rep, B, "inj", seed,
                                              certified=certified)
                surjects = exists_full_rank_hom(B, eps_rep, "surj", seed + 1,
                                                certified=certified)
                if not (embeds or surjects):
                    chk.counterexamples.append(
                        f"brick {eps} neither embeds in nor is a quotient of"
                        f" M({u}, {lam}, {N + 1})"
                    )

    # --- a square prefix of the band forces non-brick powers
    chk = report.square_prefix_nonbrick
    for w in minimal_bands:
        for u, k, v, walk in _band_power_prefix_strings(alg, w, max_string_len):
            chk.examined += 1
            if _square_prefix(u) is None:
                continue
            chk.satisfied += 1
            if is_brick(alg, walk):
                chk.counterexamples.append(
                    f"{walk} = {u}^{k} {v} with square-prefixed band is a brick"
                )

    # --- prepending another band copy to a brick u^k v keeps a brick
    chk = report.extension_brick
    for w in minimal_bands:
        for u, k, v, walk in _band_power_prefix_strings(alg, w, max_string_len, min_k=2):
            chk.examined += 1
            if not is_brick(alg, walk):
                continue
            chk.satisfied += 1
            if not is_brick(alg, u.concat(walk)):
                chk.counterexamples.append(
                    f"M({u} {walk}) lost brickhood, from brick {u}^{k} {v}"
                )

    # --- dual-host instances: k = 1 maximal substrings that are also
    #     quotients/submodules of a second brick
    chk = report.dual_host_shaped
    for w in minimal_bands:
        for gamma in bricks:
            if not supported_on(gamma, w, 1):
                continue
            for m in maximal_w_substrings(gamma, w):
                if m.power != 1:
                    continue
                occ = m.occurrence
                if not (occ.is_submodule_occurrence or occ.is_quotient_occurrence):
                    continue
                want_quotient = occ.is_submodule_occurrence
                other = _find_second_host(m.word, gamma, bricks, want_quotient)
                if other is None:
                    continue
                chk.examined += 1
                chk.satisfied += 1
                if not is_brick(alg, m.word):
                    chk.counterexamples.append(
                        f"dual-host substring {m.word} in {gamma} and {other} is not a brick"
                    )

    # --- extension-host instances: brick u^k v sub/quotient of a brick z
    #     supported one band power higher
    chk = report.extension_host_shaped_count
    for w in minimal_bands:
        for u, k, v, walk in _band_power_prefix_strings(alg, w, max_string_len):
            if not is_brick(alg, walk):
                continue
            found = False
            for z in bricks:
                if z.length <= walk.length or periodic_factor(z.letters, w) is None:
                    continue
                if not supported_on(z, u, k + 1):
                    continue
                occs = substring_occurrences(z, walk)
                if any(o.is_submodule_occurrence or o.is_quotient_occurrence for o in occs):
                    found = True
                    break
            if not found:
                continue
            chk.examined += 1
            chk.satisfied += 1
            if not is_brick(alg, u.concat(walk)):
                chk.counterexamples.append(
                    f"extension-host case: extending brick {walk} by {u} lost brickhood"
                )

    # --- no emitted maximal green sequence touches a band square
    chk = report.band_square_cross_check
    pools = build_brick_pools(alg, max_string_len, lambdas=lambdas)
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


def _find_second_host(word: Walk, gamma: Walk, bricks, want_quotient: bool):
    """A brick other than gamma in which word sits as a quotient (or
    submodule) occurrence."""
    for cand in bricks:
        if cand in (gamma, gamma.inverse()):
            continue
        for occ in substring_occurrences(cand, word):
            flag = occ.is_quotient_occurrence if want_quotient else occ.is_submodule_occurrence
            if flag:
                return cand
    return None
