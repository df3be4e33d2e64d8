import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mgslab import cli
from mgslab.cli import main

from conftest import DATA, NON_DOMESTIC_GENTLE


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_gentle5(capsys):
    code, doc = run_cli(capsys, "validate", "--algebra", str(DATA / "gentle5.alg"))
    assert code == 0
    assert doc["payload"]["is_string_algebra"] is True
    assert doc["payload"]["is_gentle"] is True
    assert len(doc["algebra_fingerprint"]) == 64


def test_validate_double_arrows(capsys):
    code, doc = run_cli(capsys, "validate", "--algebra", str(DATA / "double_arrows.alg"))
    assert code == 0
    assert doc["payload"]["is_string_algebra"] is True
    assert doc["payload"]["is_gentle"] is False


def test_bands_kronecker(capsys):
    code, doc = run_cli(capsys, "bands", "--algebra", str(DATA / "kronecker.alg"),
                        "--max-len", "6")
    assert code == 0
    assert doc["payload"]["bands"] == [{"band": "a b-", "minimal": True}]


def test_strings_two_loops(capsys):
    code, doc = run_cli(capsys, "strings", "--algebra", str(DATA / "two_loops.alg"),
                        "--max-len", "1")
    assert code == 0
    assert doc["payload"]["strings"] == ["e:1", "e:2", "a", "b", "g"]


def test_module_show(capsys):
    code, doc = run_cli(capsys, "module", "show", "--algebra",
                        str(DATA / "gentle5.alg"), "g2 b2 a2- g2 b1-")
    assert code == 0
    payload = doc["payload"]
    assert payload["dims"] == {"1": 1, "2": 2, "3": 1, "4": 0, "5": 2}
    assert payload["diagram"]
    assert payload["top"] == ["1", "5", "5"]


def test_module_band_matrices(capsys):
    code, doc = run_cli(capsys, "module", "band", "--algebra",
                        str(DATA / "gentle5.alg"), "b2 a2- g2",
                        "--lam", "2", "--k", "2")
    assert code == 0
    assert doc["payload"]["matrices"]["g2"] == [["2", "0"], ["1", "2"]]


def test_hom_cross_checked(capsys):
    code, doc = run_cli(capsys, "hom", "--algebra", str(DATA / "a12tilde.alg"),
                        "b1", "e:1")
    assert code == 0
    assert doc["payload"]["hom_dim"] == 1
    assert doc["payload"]["oracle_dim"] == 1


def test_oracle_hom_band(capsys):
    code, doc = run_cli(capsys, "oracle", "hom", "--algebra",
                        str(DATA / "gentle5.alg"), "b2 a2- g2", "b2 a2- g2",
                        "--band1", "2", "--band2", "2")
    assert code == 0
    assert doc["payload"]["oracle_dim"] == 1


def test_bricks(capsys):
    code, doc = run_cli(capsys, "bricks", "--algebra", str(DATA / "a2.alg"),
                        "--max-len", "4")
    assert code == 0
    assert [b["walk"] for b in doc["payload"]["bricks"]] == ["e:1", "e:2", "a"]


def test_mgs_enumerate_a2(capsys):
    code, doc = run_cli(capsys, "mgs", "enumerate", "--algebra",
                        str(DATA / "a2.alg"), "--max-string-len", "4")
    assert code == 0
    assert doc["payload"]["sequences"] == [["e:1", "a", "e:2"], ["e:2", "e:1"]]
    assert doc["certificate"]["max_string_len"] == 4


def test_mgs_check_complete_exit_zero(capsys):
    code, doc = run_cli(capsys, "mgs", "check", "--algebra",
                        str(DATA / "mgs5.alg"), "--max-string-len", "12",
                        "--sequence", str(DATA / "mgs5_sequence.txt"))
    assert code == 0
    assert doc["payload"]["weakly_fho"] is True
    assert doc["payload"]["verdict"]["kind"] == "complete"


def test_mgs_check_refinable_exit_one(capsys, tmp_path):
    seq = tmp_path / "seq.txt"
    seq.write_text("e:1\ne:2\n")
    code, doc = run_cli(capsys, "mgs", "check", "--algebra",
                        str(DATA / "a2.alg"), "--max-string-len", "4",
                        "--sequence", str(seq))
    assert code == 1
    assert doc["payload"]["verdict"]["kind"] == "refinable"
    assert doc["payload"]["verdict"]["witness"] == {
        "brick": "a", "is_band_brick": False, "position": 1,
    }


def test_mgs_enumerate_contains(capsys):
    code, doc = run_cli(capsys, "mgs", "enumerate", "--algebra",
                        str(DATA / "mgs5.alg"), "--max-string-len", "12",
                        "--contains", str(DATA / "mgs5_sequence.txt"))
    assert code == 0
    seqs = doc["payload"]["sequences"]
    paper = [l.strip() for l in (DATA / "mgs5_sequence.txt").read_text().splitlines() if l.strip()]
    assert paper in seqs


def test_mgs_enumerate_contains_repeated_entry(capsys, tmp_path):
    seq = tmp_path / "twice.txt"
    seq.write_text("e:1\ne:1\n")
    code, doc = run_cli(capsys, "mgs", "enumerate", "--algebra",
                        str(DATA / "mgs5.alg"), "--max-string-len", "8",
                        "--contains", str(seq))
    assert code == 3
    assert "payload" not in doc
    assert doc["error"] == "required entry e:1 is listed twice"


@pytest.mark.parametrize("bound", ["4", "8", "10"])
def test_mgs_enumerate_hexagon_record(capsys, tmp_path, bound):
    """The smallest gentle algebra found with a gap in its lengths: a loop
    x1 at 2 with x1 x1 = 0 and x2: 2 -> 1 gives lengths 2 and 4, no 3.
    This records the engine's output; no independent reference confirms
    it yet."""
    alg = tmp_path / "hexagon.alg"
    alg.write_text("vertex 1\nvertex 2\narrow x1 2 2\narrow x2 2 1\nrelation x1 x1\n")
    code, doc = run_cli(capsys, "mgs", "enumerate", "--algebra", str(alg),
                        "--max-string-len", bound, "--band-len", bound)
    assert code == 0
    assert doc["payload"]["sequences"] == [["e:1", "e:2"], ["e:2", "x1 x2", "x2", "e:1"]]
    assert doc["payload"]["nodes"] == 12


AFFINE_A = "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"


@pytest.mark.parametrize("arrows, count", [
    ("arrow a 1 2\narrow b 3 2\narrow c 3 4\narrow d 1 4\n", 100),  # alternating A~_{2,2}
    ("arrow a 1 2\narrow b 2 3\narrow c 3 4\narrow d 1 4\n", 75),  # A~_{3,1}
], ids=["alternating-A22", "A31"])
def test_default_band_bound_keeps_affine_counts(capsys, tmp_path, arrows, count):
    """Green mutation gives these counts.  Under a band bound of half the
    string length, a band brick that refines some chains was missing from
    the insertion pool, and the counts read 120,276 and 5,753."""
    alg = tmp_path / "affine.alg"
    alg.write_text(AFFINE_A + arrows)
    code, doc = run_cli(capsys, "mgs", "enumerate", "--algebra", str(alg),
                        "--max-string-len", "6")
    assert code == 0
    assert doc["payload"]["count"] == count
    assert doc["payload"]["nodes"] < 5000
    assert doc["certificate"] == {"max_string_len": 6, "band_bound": 6}


@pytest.mark.parametrize("argv", [
    ("mgs", "enumerate", "--algebra", str(DATA / "a12tilde.alg"), "--max-string-len", "4"),
    ("mgs", "check", "--algebra", str(DATA / "kronecker.alg"), "--max-string-len", "4",
     "--sequence", str(DATA / "kronecker_band_witness.txt")),
    ("mgs", "exists", "--algebra", str(DATA / "a12tilde.alg"), "--method", "gentle",
     "--max-string-len", "4"),
    ("lemmas", "run", "--algebra", str(DATA / "a12tilde.alg"), "--max-len", "4",
     "--budget", "50000"),
], ids=["enumerate", "check", "exists", "lemmas"])
def test_certificates_name_the_band_bound_used(capsys, argv):
    main(list(argv))
    out = capsys.readouterr().out
    assert '"band_bound": null' not in out
    assert json.loads(out)["certificate"]["band_bound"] == 4


def test_mgs_exists_simples(capsys):
    code, doc = run_cli(capsys, "mgs", "exists", "--algebra",
                        str(DATA / "a12tilde.alg"), "--method", "simples",
                        "--max-string-len", "8")
    assert code == 0
    assert doc["payload"]["hypothesis_holds"] is True
    assert doc["payload"]["order"] == ["2", "1", "3"]
    assert doc["payload"]["completed"]


def test_mgs_exists_gentle_rejects_non_gentle(capsys):
    code, doc = run_cli(capsys, "mgs", "exists", "--algebra",
                        str(DATA / "double_arrows.alg"), "--method", "gentle",
                        "--max-string-len", "6")
    assert code == 3
    assert "gentle" in doc["error"]


def test_mgs_exists_gentle_counterexample_exit_one(capsys, tmp_path):
    alg = tmp_path / "non_domestic.alg"
    alg.write_text(NON_DOMESTIC_GENTLE)
    code, doc = run_cli(capsys, "mgs", "exists", "--algebra", str(alg),
                        "--method", "gentle", "--max-string-len", "8")
    assert code == 1
    assert doc["kind"] == "TheoremCounterexample"
    assert doc["error"] == "simple 1 repeats along the chain ['1', '4']"


def test_lemmas_run(capsys):
    code, doc = run_cli(capsys, "lemmas", "run", "--algebra",
                        str(DATA / "a12tilde.alg"), "--max-len", "6",
                        "--budget", "50000")
    assert code == 0
    payload = doc["payload"]
    assert payload["maximal_substring_sub_or_quotient"]["counterexamples"] == []


def test_budget_exhaustion_exit_four(capsys):
    code, doc = run_cli(capsys, "mgs", "enumerate", "--algebra",
                        str(DATA / "mgs5.alg"), "--max-string-len", "12",
                        "--budget", "500")
    assert code == 4
    assert doc["payload"]["budget_exhausted"] is True


def test_parse_error_exit_three(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("vertex 1\narrow a 1 9\n")
    code, doc = run_cli(capsys, "validate", "--algebra", str(bad))
    assert code == 3
    assert "unknown vertex" in doc["error"]


@pytest.mark.parametrize("name", ["a-", "e:1"])
def test_unspellable_arrow_name_exit_three(capsys, tmp_path, name):
    bad = tmp_path / "bad.alg"
    bad.write_text(f"vertex 1\nvertex 2\narrow {name} 1 2\n")
    code, doc = run_cli(capsys, "strings", "--algebra", str(bad), "--max-len", "1")
    assert code == 3
    assert doc["error"].startswith(f"line 3: arrow name {name!r}")


def test_missing_file_exit_three(capsys):
    code, doc = run_cli(capsys, "validate", "--algebra", "no-such-file.alg")
    assert code == 3


def test_input_error_document_bytes(capsys):
    assert main(["validate", "--algebra", "no-such-file.alg"]) == 3
    assert capsys.readouterr().out == (
        '{\n  "command": [\n    "validate",\n    "--algebra",\n    "no-such-file.alg"\n'
        '  ],\n  "error": "[Errno 2] No such file or directory: \'no-such-file.alg\'"\n}\n')


MISSING = str(DATA / "no-such-sequence.txt")


@pytest.mark.parametrize("argv, message", [
    (("hom", "--algebra", str(DATA / "a12tilde.alg"), "b1 b1-", "e:1"),
     "hom_dim requires strings"),
    (("module", "band", "--algebra", str(DATA / "gentle5.alg"), "b2 a2- g2", "--lam", "0"),
     "lambda must be nonzero"),
    (("module", "band", "--algebra", str(DATA / "gentle5.alg"), "b2 a2- g2", "--k", "0"),
     "k must be >= 1"),
    (("module", "band", "--algebra", str(DATA / "gentle5.alg"), "b2"),
     "walk b2 is not a band"),
    (("oracle", "hom", "--algebra", str(DATA / "gentle5.alg"), "b2", "b2", "--band1", "2"),
     "walk b2 is not a band"),
    (("mgs", "check", "--algebra", str(DATA / "mgs5.alg"), "--max-string-len", "8",
      "--sequence", MISSING), "No such file or directory"),
    (("mgs", "enumerate", "--algebra", str(DATA / "mgs5.alg"), "--max-string-len", "8",
      "--contains", MISSING), "No such file or directory"),
    (("module", "band", "--algebra", str(DATA / "gentle5.alg"), "b2 a2- g2", "--lam", "1/0"),
     "bad number '1/0'"),
    (("oracle", "hom", "--algebra", str(DATA / "gentle5.alg"), "b2 a2- g2", "b2 a2- g2",
      "--band1", "1/0"), "bad number '1/0'"),
    (("oracle", "hom", "--algebra", str(DATA / "gentle5.alg"), "b2 a2- g2", "b2 a2- g2",
      "--band2", "1/0"), "bad number '1/0'"),
], ids=["hom-non-string", "band-lambda-zero", "band-k-zero", "band-non-band",
        "oracle-band-non-band", "check-missing-sequence", "contains-missing-file",
        "band-lambda-zero-denominator", "oracle-band1-zero-denominator",
        "oracle-band2-zero-denominator"])
def test_bad_module_or_sequence_input_exit_three(capsys, argv, message):
    code, doc = run_cli(capsys, *argv)
    assert code == 3
    assert doc["command"] == list(argv)
    assert message in doc["error"]


A12 = str(DATA / "a12tilde.alg")
USAGE_ERRORS = [
    ("mgs",),
    ("mgs", "enumerate", "--algebra", A12, "--max-string-len", "-3"),
    ("strings", "--algebra", A12, "--max-len", "-1"),
    ("bands", "--algebra", A12, "--max-len", "-1"),
    ("lemmas", "run", "--algebra", A12, "--max-len", "-1"),
    ("mgs", "exists", "--algebra", A12, "--method", "simples", "--band-len", "-2"),
    ("mgs", "enumerate", "--algebra", A12, "--max-string-len", "6", "--budget", "-1"),
    # no band parameter is sampled: the mgs commands take no --lambda
    ("mgs", "enumerate", "--algebra", A12, "--max-string-len", "6", "--lambda", "1,2"),
    ("mgs", "check", "--algebra", A12, "--max-string-len", "6", "--sequence",
     str(DATA / "mgs5_sequence.txt"), "--lambda", "-1/2,2"),
    ("mgs", "exists", "--algebra", A12, "--method", "simples", "--lambda", "2"),
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=[
        "missing-subcommand", "enumerate-negative-string-len", "strings-negative-len",
        "bands-negative-len", "lemmas-negative-len", "exists-negative-band-len",
        "enumerate-negative-budget", "enumerate-lambda", "check-lambda", "exists-lambda"])
def test_usage_error_exit_two(capsys, argv):
    assert main(list(argv)) == 2
    assert capsys.readouterr().out == ""


def test_byte_identical_reruns():
    cmd = [sys.executable, "-m", "mgslab.cli", "validate",
           "--algebra", str(DATA / "gentle5.alg")]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_no_environment_setting():
    """Outputs depend only on the arguments: no module reads the environment."""
    import mgslab

    sources = sorted(Path(mgslab.__file__).parent.glob("*.py"))
    assert sources
    readers = [p.name for p in sources if re.search(r"environ|getenv", p.read_text())]
    assert readers == []


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports mgslab as this
    process does."""
    import mgslab

    src = os.path.dirname(os.path.dirname(mgslab.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def _modules_after(code: str) -> set[str]:
    """Modules loaded in a fresh interpreter after running code, which
    prints nothing to stderr."""
    probe = code + "\nimport sys\nsys.stderr.write(' '.join(sys.modules))\n"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_child_env(), check=True)
    return set(proc.stderr.split())


# what `import mgslab.cli` must not add to a bare interpreter: each costs
# start-up time that no command needs up front
HEAVY = ("dataclasses", "inspect", "concurrent.futures", "logging", "hashlib",
         "mgslab.lemmas")


def test_cli_import_footprint():
    bare = _modules_after("pass")
    loaded = _modules_after("import mgslab.cli")
    assert "mgslab.cli" in loaded
    assert not (set(HEAVY) & (loaded - bare))


def test_mgs_check_does_not_load_the_lemma_suite():
    loaded = _modules_after(
        "import mgslab.cli\n"
        f"code = mgslab.cli.main(['mgs', 'check', '--algebra', {str(DATA / 'mgs5.alg')!r},"
        " '--max-string-len', '8',"
        f" '--sequence', {str(DATA / 'mgs5_sequence.txt')!r}])\n"
        "assert code == 0, code")
    assert "mgslab.mgs" in loaded
    assert "mgslab.lemmas" not in loaded
    # nor the oracle, nor `fractions` (with `decimal` and `numbers` about
    # 4.5 ms of every cold op): only band modules take a rational lambda
    assert not {"fractions", "mgslab.oracle"} & loaded


HOM_MACHINERY = ("mgslab.mgs", "mgslab.modules", "mgslab.oracle", "mgslab.words")


def test_validate_does_not_load_the_hom_machinery():
    # `import mgslab.cli` and a command that needs only the presentation and
    # its axioms compile none of the Hom machinery
    assert not set(HOM_MACHINERY) & _modules_after("import mgslab.cli")
    loaded = _modules_after(
        "import mgslab.cli\n"
        f"code = mgslab.cli.main(['validate', '--algebra', {str(DATA / 'gentle5.alg')!r}])\n"
        "assert code == 0, code")
    assert "mgslab.algebra" in loaded
    assert not set(HOM_MACHINERY) & loaded


KRONECKER = str(DATA / "kronecker.alg")


@pytest.mark.parametrize("argv", [
    ["mgs", "enumerate", "--algebra", KRONECKER, "--max-string-len", "8"],
    ["mgs", "check", "--algebra", KRONECKER, "--max-string-len", "4",
     "--sequence", str(DATA / "kronecker_band_witness.txt")],
    ["mgs", "exists", "--algebra", KRONECKER, "--method", "gentle", "--max-string-len", "6"],
], ids=["enumerate", "check", "exists"])
def test_mgs_does_not_load_the_oracle(argv):
    # the kronecker band a b- is a band brick: its Homs and its brickhood
    # come from the substring calculus, not from the linear-algebra oracle
    loaded = _modules_after(
        "import mgslab.cli\n"
        f"code = mgslab.cli.main({argv!r})\n"
        "assert code in (0, 1), code")
    assert "mgslab.mgs" in loaded
    assert "mgslab.oracle" not in loaded


MGS5_ENUMERATE = ["mgs", "enumerate", "--algebra", str(DATA / "mgs5.alg"),
                  "--max-string-len", "8"]


def _buffering_env(unbuffered: bool) -> dict:
    """_child_env() with PYTHONUNBUFFERED set to 1 or removed."""
    env = _child_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    else:
        env.pop("PYTHONUNBUFFERED", None)
    return env


def _assert_closed_stdout_exits_141_quietly(unbuffered: bool) -> None:
    # the reader takes a few bytes of a large document and goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "mgslab.cli", *MGS5_ENUMERATE],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_buffering_env(unbuffered))
    assert proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""


def test_closed_stdout_exits_141_quietly():
    _assert_closed_stdout_exits_141_quietly(unbuffered=False)


def test_closed_stdout_exits_141_quietly_unbuffered():
    # on unbuffered stdout a single large write would lose the error and exit 0
    _assert_closed_stdout_exits_141_quietly(unbuffered=True)


class _Recorder:
    """A text stream that keeps each write."""

    def __init__(self):
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)

    def flush(self):
        pass


@pytest.mark.parametrize("argv, max_writes", [
    (MGS5_ENUMERATE, 134),
    (["validate", "--algebra", str(DATA / "no-such.alg")], 1),
], ids=["mgs5-enumerate", "error"])
def test_write_goes_out_in_pipe_buf_slices(capsys, monkeypatch, argv, max_writes):
    main(argv)
    doc = json.loads(capsys.readouterr().out)
    rec = _Recorder()
    monkeypatch.setattr(sys, "stdout", rec)
    cli._write(doc)
    # each slice fits one atomic pipe write (PIPE_BUF bytes): ASCII and at
    # most 4,096 characters; the bytes are those of json.dumps
    assert all(len(p) <= 4096 and p.isascii() for p in rec.pieces)
    assert "".join(rec.pieces) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert len(rec.pieces) <= max_writes


def test_enumerate_bytes_do_not_depend_on_buffering():
    outs = [subprocess.run([sys.executable, "-m", "mgslab.cli", *MGS5_ENUMERATE],
                           capture_output=True, env=_buffering_env(unbuffered),
                           check=True).stdout
            for unbuffered in (True, False)]
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["payload"]["count"] == 2691


G5 = str(DATA / "gentle5.alg")


@pytest.mark.parametrize("argv, option, value", [
    (("module", "band", "--algebra", G5, "b2 a2- g2"), "--lam", "-1/2"),
    (("oracle", "hom", "--algebra", G5, "b2 a2- g2", "g2"), "--band1", "-1/2"),
    (("oracle", "hom", "--algebra", G5, "b2", "b2 a2- g2"), "--band2", "-1/2"),
], ids=["module-band-lam", "oracle-band1", "oracle-band2"])
def test_spaced_negative_rational_band_parameter(capsys, argv, option, value):
    # argparse alone reads `-1/2` as an option and exits 2
    spaced = [*argv, option, value]
    code, doc = run_cli(capsys, *spaced)
    assert code == 0
    assert doc["command"] == spaced
    code, joined = run_cli(capsys, *argv, f"{option}={value}")
    assert code == 0
    assert (doc["payload"], doc["certificate"]) == (joined["payload"], joined["certificate"])


MGS5 = str(DATA / "mgs5.alg")
MGS5_SEQUENCE = str(DATA / "mgs5_sequence.txt")
COLD_MGS = [
    ["mgs", "check", "--algebra", MGS5, "--max-string-len", "8", "--sequence", MGS5_SEQUENCE],
    ["mgs", "exists", "--algebra", MGS5, "--method", "simples"],
    ["mgs", "enumerate", "--algebra", str(DATA / "a2.alg"), "--max-string-len", "4"],
]


def _has_builtin_sha256() -> bool:
    import importlib.util

    return any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256"))


@pytest.mark.skipif(not _has_builtin_sha256(), reason="no built-in SHA-256 module")
@pytest.mark.parametrize("argv", COLD_MGS, ids=["check", "exists", "enumerate"])
def test_cold_mgs_command_loads_no_openssl(argv):
    # the fingerprint every command prints is hashed without hashlib, whose
    # import loads OpenSSL's _hashlib (3.5-4.3 ms of a cold op)
    loaded = _modules_after(
        "import mgslab.cli\n"
        f"code = mgslab.cli.main({argv!r})\n"
        "assert code in (0, 1), code")
    assert "mgslab.mgs" in loaded
    assert not {"hashlib", "_hashlib"} & loaded


@pytest.mark.parametrize("name", ["a12tilde", "a2", "double_arrows", "gentle5",
                                  "kronecker", "mgs5", "two_loops"])
def test_fingerprint_is_the_sha256_of_the_normalized_text(name):
    import hashlib

    from mgslab import load_algebra

    alg = load_algebra(DATA / f"{name}.alg")
    assert alg.fingerprint == hashlib.sha256(alg.normalized_text.encode()).hexdigest()


@pytest.mark.parametrize("context", [(), ("x",), ("band-embedding", "b2 a2- g2", "b2", "3")])
def test_probe_seed_is_the_sha256_prefix_of_its_context(context):
    import hashlib

    from mgslab import load_algebra
    from mgslab.oracle import probe_seed

    alg = load_algebra(DATA / "gentle5.alg")
    digest = hashlib.sha256("|".join((alg.fingerprint, *context)).encode()).digest()
    assert probe_seed(alg, *context) == int.from_bytes(digest[:8], "big")


A2 = str(DATA / "a2.alg")
# one valid argv per leaf command path
LEAF_ARGVS = [
    ["validate", "--algebra", A2],
    ["strings", "--algebra", A2, "--max-len", "3"],
    ["bands", "--algebra", A2, "--max-len", "3"],
    ["module", "show", "--algebra", A2, "a"],
    ["module", "band", "--algebra", G5, "b2 a2- g2", "--lam=-1/2", "--k", "2"],
    ["hom", "--algebra", A2, "a", "e:1"],
    ["bricks", "--algebra", A2, "--max-len", "3"],
    ["oracle", "hom", "--algebra", G5, "b2 a2- g2", "g2", "--band1", "2"],
    ["mgs", "enumerate", "--algebra", A2, "--max-string-len", "4", "--budget", "9",
     "--contains", MGS5_SEQUENCE],
    ["mgs", "check", "--algebra", A2, "--max-string-len", "4", "--band-len", "2",
     "--sequence", MGS5_SEQUENCE],
    ["mgs", "exists", "--algebra", A2, "--method", "gentle"],
    ["lemmas", "run", "--algebra", A2, "--max-len", "3", "--budget", "7"],
]


def _path_id(argv) -> str:
    return " ".join(w for w in argv[:2] if not w.startswith("-"))


@pytest.mark.parametrize("argv", LEAF_ARGVS, ids=_path_id)
def test_path_parser_reads_argv_as_the_whole_tree_does(argv):
    path_parser = cli.build_parser(argv)
    assert path_parser is not None
    assert path_parser.parse_args(argv) == cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", [[], ["-h"], ["mgs"], ["mgs", "-h"], ["mgs", "bogus"],
                                  ["bogus"], ["--algebra", A2, "validate"]])
def test_no_path_parser_without_a_complete_command_path(argv):
    assert cli.build_parser(argv) is None


def _full_tree_result(argv: list[str], capsys) -> tuple:
    """Exit code, stdout and stderr of the whole tree's parse of argv."""
    try:
        cli.build_parser().parse_args(argv)
        code = 0
    except SystemExit as exc:
        code = 2 if exc.code not in (0, None) else 0
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", [
    *map(list, USAGE_ERRORS),
    ["bogus", "--algebra", A12],
    ["mgs", "bogus", "--algebra", A12],
    ["mgs", "check", "--algebra", A12, "--max-string-len", "6", "--sequence",
     MGS5_SEQUENCE, "extra"],
    ["validate", "--algebra", A12, "--bogus"],
    ["mgs", "check"],
    ["mgs", "check", "-h"],
    ["mgs", "check", "--he"],
    ["oracle", "hom", "--help"],
    ["lemmas", "-h"],
    ["-h"],
    [],
], ids=lambda argv: " ".join(argv).replace(str(DATA) + os.sep, "") or "empty")
def test_help_and_usage_errors_match_the_whole_tree(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    want = _full_tree_result(argv, capsys)
    code = main(argv)
    assert (code, *capsys.readouterr()) == want
    # help goes to stdout with exit 0, a usage error to stderr with exit 2
    assert want[0] == (0 if want[1] else 2)


def test_unrecognized_argument_is_reported_with_the_top_level_usage(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["validate", "--algebra", A12, "--bogus"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mgslab [-h]\n")
    assert "{validate,strings,bands,module,hom,bricks,oracle,mgs,lemmas}" in err
    assert err.endswith("mgslab: error: unrecognized arguments: --bogus\n")


def test_mgs_check_builds_three_parsers(capsys, monkeypatch):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(COLD_MGS[0]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["weakly_fho"]
    assert len(built) <= 3
