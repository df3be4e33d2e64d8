"""The benchmark's own test: the verifier must record a failure for a
doctored output of each workload, and pass the real one.

    python3 perfbench/selftest.py        # from the repository root
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORK = Path("perfbench/out/selftest")


def cli(op):
    proc = subprocess.run([sys.executable, "-m", "mgslab.cli", *op.argv],
                          capture_output=True, env=run.child_env(ROOT), cwd=ROOT)
    return proc.stdout, proc.returncode


def doctor(stdout: bytes, edit) -> bytes:
    doc = json.loads(stdout)
    edit(doc["payload"])
    return json.dumps(doc).encode()


class VerifierCatchesDoctoredOutputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        cls.ops = {op.name: op for name in ("enumerate", "verify", "crosscheck")
                   for op in workloads.build(name, 7, WORK).ops}
        cls.out = {}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def real(self, name):
        if name not in self.out:
            self.out[name] = cli(self.ops[name])
        return self.out[name]

    def verdict(self, op, stdout, code):
        return check.verify_op(op, stdout, code, check.Context(7))

    def assertPasses(self, op, stdout, code):
        examined, failures = self.verdict(op, stdout, code)
        self.assertEqual(failures, [])
        self.assertGreater(examined, 0)

    def assertCaught(self, op, stdout, code):
        _, failures = self.verdict(op, stdout, code)
        self.assertNotEqual(failures, [], "doctored output passed the verifier")

    def test_enumerate_wrong_count(self):
        op = self.ops["enumerate:a12tilde:L12"]
        stdout, code = self.real(op.name)
        self.assertPasses(op, stdout, code)

        def drop_one(p):
            p["sequences"].pop()
            p["count"] -= 1
        self.assertCaught(op, doctor(stdout, drop_one), code)

    def test_enumerate_sequences_not_fho(self):
        op = self.ops["enumerate:a12tilde:L12"]
        stdout, code = self.real(op.name)

        def reverse(p):
            p["sequences"] = [s[::-1] for s in p["sequences"]]
        self.assertCaught(op, doctor(stdout, reverse), code)

    def test_enumerate_exhausted_node_count(self):
        base = self.ops["enumerate:mgs5:L8"]
        argv = base.argv[:base.argv.index("--budget")] + ("--budget", "1000")
        op = dataclasses.replace(base, argv=argv, expect=dict(base.expect, budget=1000))
        stdout, code = cli(op)
        self.assertEqual(code, 4)
        self.assertPasses(op, stdout, code)

        def undercount(p):
            p["nodes"] = 1000
        self.assertCaught(op, doctor(stdout, undercount), code)

    def test_verify_wrong_witness(self):
        op = next(o for o in self.ops.values() if o.name.startswith("check:drop"))
        stdout, code = self.real(op.name)
        self.assertPasses(op, stdout, code)
        entries = op.expect["entries"]

        def entry_as_witness(p):
            p["verdict"]["witness"]["brick"] = entries[0]
        self.assertCaught(op, doctor(stdout, entry_as_witness), code)

        def wrong_position(p):
            w = p["verdict"]["witness"]
            w["position"] = 0 if w["position"] else len(entries)
        self.assertCaught(op, doctor(stdout, wrong_position), code)

    def test_verify_flipped_verdict(self):
        op = self.ops["check:bundled"]
        stdout, code = self.real(op.name)
        self.assertPasses(op, stdout, code)

        def refinable(p):
            p["verdict"]["kind"] = "refinable"
        self.assertCaught(op, doctor(stdout, refinable), 1)

        def not_fho(p):
            p["weakly_fho"] = False
            p["verdict"] = None
        self.assertCaught(op, doctor(stdout, not_fho), 1)

    def test_crosscheck_mismatch_and_vacuous(self):
        op = self.ops["pairs:kronecker:0"]
        good = {"examined": op.expect["size"], "mismatches": [], "strings": 16,
                "complete": True, "digest": ""}
        self.assertPasses(op, good, None)
        bad = dict(good, mismatches=["Hom(a, b): calculus 1, oracle 0"])
        self.assertCaught(op, bad, None)
        self.assertCaught(op, dict(good, examined=op.expect["size"] - 1), None)

        lemma = self.ops["lemmas:kronecker:L10"]
        good = {"examined": 121, "counterexamples": 0, "complete": True, "digest": ""}
        self.assertPasses(lemma, good, None)
        self.assertCaught(lemma, dict(good, counterexamples=1), None)
        self.assertCaught(lemma, dict(good, examined=0), None)

    def test_unreadable_output(self):
        op = self.ops["check:bundled"]
        self.assertCaught(op, b"", 0)
        self.assertCaught(op, b'{"payload": {}}', 0)


if __name__ == "__main__":
    unittest.main()
