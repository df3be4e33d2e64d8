"""Acceptance gate: one test per criterion, each printing a PASS line and
enforcing its stated exactness and time budget."""

import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction

from mgslab import (
    band_module,
    canonical_rotation,
    enumerate_bands,
    enumerate_strings,
    hom_dim,
    hom_dim_linalg,
    is_band,
    is_minimal_band,
    parse_walk,
    string_module,
    supported_on,
    to_explicit,
    validate_axioms,
)
from mgslab.lemmas import run_lemma_suite
from mgslab.mgs import (
    build_brick_pools,
    complete_from_prefix,
    enumerate_mgs,
    insertable,
    is_complete_relative,
    is_weakly_fho,
    simple_order_socle_first,
)

from conftest import DATA


class timer:
    def __init__(self, limit_s):
        self.limit = limit_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"exceeded {self.limit}s budget: {self.elapsed:.1f}s"
            )


def report(n, label, t):
    print(f"ACCEPTANCE {n:02d} PASS ({t.elapsed:.2f}s < {t.limit}s): {label}")


def bundled_sequence(mgs5):
    lines = (DATA / "mgs5_sequence.txt").read_text().splitlines()
    return tuple(parse_walk(mgs5, l) for l in lines if l.strip())


def test_criterion_01_axioms(gentle5, two_loops, kronecker, double_arrows):
    with timer(1.0) as t:
        r22 = validate_axioms(gentle5)
        assert r22.is_string_algebra is True and r22.is_gentle is True
        r21 = validate_axioms(two_loops)
        assert r21.is_string_algebra is True
        rk = validate_axioms(kronecker)
        assert rk.is_gentle is True
        r43 = validate_axioms(double_arrows)
        assert r43.is_string_algebra is True and r43.is_gentle is False
    report(1, "axiom classification on the four test algebras", t)


def test_criterion_02_strings_bands(two_loops, gentle5, kronecker):
    with timer(5.0) as t:
        listed = ["e:1", "e:2", "a", "b", "g", "b g- b-", "a b g- b-"]
        bands_among_listed = [
            lit for lit in listed
            if parse_walk(two_loops, lit).length > 0 and is_band(two_loops, parse_walk(two_loops, lit))
        ]
        assert bands_among_listed == ["a b g- b-"]
        classes = {
            canonical_rotation(parse_walk(two_loops, lit)).key()
            for lit in bands_among_listed
        }
        assert len(classes) == 1

        w1 = parse_walk(gentle5, "b1- a1 g1-")
        w2 = parse_walk(gentle5, "b2 a2- g2")
        w2w1 = w2.concat(w1)
        w22w1 = w2.power(2).concat(w1)
        for w in (w1, w2, w2w1, w22w1):
            assert is_band(gentle5, w)
        assert not is_minimal_band(gentle5, w22w1)
        assert is_minimal_band(gentle5, w2w1)

        kron_bands = enumerate_bands(kronecker, 6)
        assert len(kron_bands) == 1
    report(2, "band recognition and minimality on the bundled examples", t)


def test_criterion_03_modules(gentle5):
    with timer(1.0) as t:
        M = string_module(gentle5, parse_walk(gentle5, "g2 b2 a2- g2 b1-"))
        assert M.dims() == {"1": 1, "2": 2, "3": 1, "4": 0, "5": 2}

        B = band_module(gentle5, parse_walk(gentle5, "b2 a2- g2"), Fraction(2), 2)
        assert B.dims() == {"1": 0, "2": 2, "3": 2, "4": 0, "5": 2}
        mats = dict(to_explicit(B).mats)
        two, one, zero = Fraction(2), Fraction(1), Fraction(0)
        assert mats["g2"] == ((two, zero), (one, two))
        assert mats["b2"] == ((one, zero), (zero, one))
        assert mats["a2"] == ((one, zero), (zero, one))
        for name in ("b1", "a1", "g1"):
            assert not any(any(row) for row in mats[name])
    report(3, "string/band module representations match the pinned matrices", t)


def test_criterion_04_hom_oracle_equivalence(two_loops, gentle5, mgs5, double_arrows, a12tilde):
    with timer(600.0) as t:
        total = 0
        for alg in (two_loops, gentle5, mgs5, double_arrows, a12tilde):
            strings = enumerate_strings(alg, 6)
            reps = {w: to_explicit(string_module(alg, w)) for w in strings}
            for a in strings:
                for b in strings:
                    total += 1
                    assert hom_dim(alg, a, b) == hom_dim_linalg(reps[a], reps[b]), (
                        f"hom mismatch on {a} -> {b}"
                    )
        assert total > 10_000
    report(4, f"hom calculus equals the oracle on all {total} pairs", t)


def test_criterion_05_sec4_mgs_reproduction(mgs5):
    with timer(600.0) as t:
        seq = bundled_sequence(mgs5)
        assert len(seq) == 14
        assert is_weakly_fho(mgs5, seq)

        pools = build_brick_pools(mgs5, 12)
        verdict = is_complete_relative(mgs5, seq, pools)
        assert verdict.kind == "complete"

        result = enumerate_mgs(mgs5, pools, require_subsequence=seq)
        assert seq in result.sequences

        entry7 = seq[6]
        band = parse_walk(mgs5, "b2 d b1-")
        assert supported_on(entry7, band, 1)
        for b in enumerate_bands(mgs5, 6):
            assert not supported_on(entry7, b, 2)
    report(5, "bundled 14-term sequence reproduced and certified complete", t)


def test_criterion_06_affine_insertion_flagging(a12tilde):
    with timer(60.0) as t:
        pools = build_brick_pools(a12tilde, 8)
        good = tuple(parse_walk(a12tilde, s)
                     for s in ("e:1", "a", "e:2", "b1", "e:3"))
        assert is_weakly_fho(a12tilde, good)
        assert is_complete_relative(a12tilde, good, pools).kind == "complete"

        prefix = tuple(parse_walk(a12tilde, s) for s in ("e:1", "b1"))
        w2brick = parse_walk(a12tilde, "b1 b2 a- b1 b2 a-")
        assert insertable(a12tilde, prefix, 2, w2brick)
        flagged = {str(b) for b, _ in pools.excluded}
        assert "a b2- b1- a b2- b1-" in flagged  # canonical form of the brick
        verdict = is_complete_relative(a12tilde, prefix, pools)
        blocked = {str(b) for b, _, _ in verdict.band_square_blockers}
        assert "a b2- b1- a b2- b1-" in blocked
        assert verdict.band_square_obstructed
    report(6, "five-term sequence complete; doomed prefix flagged", t)


def test_criterion_07_double_arrows_nonexistence(double_arrows):
    with timer(600.0) as t:
        pools = build_brick_pools(double_arrows, 10)
        result = enumerate_mgs(double_arrows, pools, budget=10_000_000)
        assert result.sequences == ()

        res = simple_order_socle_first(double_arrows, enumerate_bands(double_arrows, 5))
        assert not res.hypothesis_holds
        by_simple = {s: (top, socle) for s, top, socle in res.witnesses}
        assert by_simple["1"] == ("a1 a2-", "b1 b2-")

        for order in (("1", "2"), ("2", "1")):
            assert complete_from_prefix(double_arrows, pools, order, budget=5_000_000) is None
    report(7, "no maximal green sequence within bounds; hypothesis violated", t)


def test_criterion_08_lemma_suite(gentle5, a12tilde):
    with timer(1800.0) as t:
        for alg in (gentle5, a12tilde):
            rep = run_lemma_suite(alg, 9, mgs_budget=150_000)
            assert rep.total_counterexamples == 0
            for chk in (
                rep.sub_or_quotient,
                rep.power_factorization,
                rep.square_substring_brick,
                rep.band_module_embedding,
                rep.square_prefix_nonbrick,
                rep.extension_brick,
                rep.band_square_cross_check,
            ):
                assert chk.examined > 0
            # the conclusions actually fire on these algebras, except the
            # square-prefix hypothesis, which no acyclic-quiver band meets
            for chk in (
                rep.sub_or_quotient,
                rep.power_factorization,
                rep.square_substring_brick,
                rep.band_module_embedding,
                rep.extension_brick,
            ):
                assert chk.satisfied > 0
            assert rep.square_prefix_nonbrick.satisfied == 0
    report(8, "zero lemma counterexamples at length 9 on both algebras", t)


def test_criterion_09_corollary_4_4_evidence(kronecker, a12tilde):
    with timer(600.0) as t:
        for alg, lo, hi in ((kronecker, 6, 8), (a12tilde, 8, 10)):
            # the bands saturate well below lo: raising the bound changes nothing
            assert enumerate_bands(alg, lo) == enumerate_bands(alg, hi)
            low = set(enumerate_mgs(alg, build_brick_pools(alg, lo)).sequences)
            high = set(enumerate_mgs(alg, build_brick_pools(alg, hi)).sequences)
            assert low == high and low
    report(9, "emitted maximal green sequences stable past band saturation", t)


DETERMINISM_COMMANDS = (
    ("validate", "--algebra", str(DATA / "gentle5.alg")),
    ("validate", "--algebra", str(DATA / "double_arrows.alg")),
    ("strings", "--algebra", str(DATA / "two_loops.alg"), "--max-len", "4"),
    ("strings", "--algebra", str(DATA / "gentle5.alg"), "--max-len", "10"),
    ("bands", "--algebra", str(DATA / "kronecker.alg"), "--max-len", "6"),
    ("bands", "--algebra", str(DATA / "gentle5.alg"), "--max-len", "9"),
    ("module", "show", "--algebra", str(DATA / "gentle5.alg"), "g2 b2 a2- g2 b1-"),
    ("module", "band", "--algebra", str(DATA / "gentle5.alg"), "b2 a2- g2",
     "--lam", "2", "--k", "2"),
    ("hom", "--algebra", str(DATA / "a12tilde.alg"), "b1", "e:1"),
    ("bricks", "--algebra", str(DATA / "a12tilde.alg"), "--max-len", "8"),
    ("bricks", "--algebra", str(DATA / "two_loops.alg"), "--max-len", "10"),
    ("oracle", "hom", "--algebra", str(DATA / "gentle5.alg"),
     "b2 a2- g2", "b2 a2- g2", "--band1", "2", "--band2", "2"),
    ("oracle", "hom", "--algebra", str(DATA / "gentle5.alg"),
     "b2 a2- g2", "b2 a2- g2", "--band1=1/3", "--band2=1/3"),
    ("oracle", "hom", "--algebra", str(DATA / "gentle5.alg"),
     "b2 a2- g2", "b2 a2- g2", "--band1=-1/2", "--band2=1/3"),
    ("oracle", "hom", "--algebra", str(DATA / "gentle5.alg"), "b2 a2- g2", "g2", "--band1=2"),
    ("oracle", "hom", "--algebra", str(DATA / "gentle5.alg"), "b2", "b2 a2- g2", "--band2=2"),
    ("mgs", "enumerate", "--algebra", str(DATA / "a12tilde.alg"),
     "--max-string-len", "8"),
    ("mgs", "check", "--algebra", str(DATA / "mgs5.alg"),
     "--max-string-len", "12", "--sequence", str(DATA / "mgs5_sequence.txt")),
    ("mgs", "check", "--algebra", str(DATA / "mgs5.alg"),
     "--max-string-len", "16", "--sequence", str(DATA / "mgs5_sequence.txt")),
    ("mgs", "check", "--algebra", str(DATA / "kronecker.alg"),
     "--max-string-len", "4", "--sequence", str(DATA / "kronecker_band_witness.txt")),
    ("mgs", "exists", "--algebra", str(DATA / "a12tilde.alg"),
     "--method", "simples", "--max-string-len", "8"),
    ("mgs", "exists", "--algebra", str(DATA / "a12tilde.alg"),
     "--method", "gentle", "--max-string-len", "8"),
    ("mgs", "exists", "--algebra", str(DATA / "gentle5.alg"),
     "--method", "gentle", "--max-string-len", "10"),
    ("mgs", "exists", "--algebra", str(DATA / "mgs5.alg"),
     "--method", "simples", "--max-string-len", "10"),
    ("mgs", "enumerate", "--algebra", str(DATA / "mgs5.alg"),
     "--max-string-len", "12", "--contains", str(DATA / "mgs5_sequence.txt")),
    ("lemmas", "run", "--algebra", str(DATA / "a12tilde.alg"),
     "--max-len", "6", "--budget", "50000"),
    ("lemmas", "run", "--algebra", str(DATA / "a12tilde.alg"), "--max-len", "10"),
    ("lemmas", "run", "--algebra", str(DATA / "two_loops.alg"), "--max-len", "10"),
    ("lemmas", "run", "--algebra", str(DATA / "kronecker.alg"), "--max-len", "10"),
    ("lemmas", "run", "--algebra", str(DATA / "gentle5.alg"), "--max-len", "9"),
    ("lemmas", "run", "--algebra", str(DATA / "mgs5.alg"),
     "--max-len", "8", "--budget", "50000"),
    ("lemmas", "run", "--algebra", str(DATA / "double_arrows.alg"),
     "--max-len", "8", "--budget", "50000"),
)


def _without_data_dir(text):
    return text.replace(str(DATA), "$DATA")


def test_criterion_10_determinism():
    # Exit code and sha256 of stdout per command, recorded from an earlier
    # commit with the data directory written as $DATA: refactors must keep
    # every byte of output.
    digests = json.loads((DATA / "determinism_digests.json").read_text())
    with timer(600.0) as t:
        for cmd in DETERMINISM_COMMANDS:
            outputs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "mgslab.cli", *cmd],
                    capture_output=True,
                    text=True,
                )
                outputs.append(proc.stdout)
                json.loads(proc.stdout)  # must stay valid JSON
                if len(outputs) == 1:
                    stdout = _without_data_dir(proc.stdout).encode()
                    assert digests[_without_data_dir(" ".join(cmd))] == {
                        "exit": proc.returncode,
                        "sha256": hashlib.sha256(stdout).hexdigest(),
                    }, f"output differs from the recorded digest for {cmd}"
            assert len(set(outputs)) == 1, f"nondeterministic output for {cmd}"
    report(10, "byte-identical JSON across reruns and the recorded digests", t)
