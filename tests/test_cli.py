import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mgslab.cli import main

from conftest import DATA


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
], ids=["hom-non-string", "band-lambda-zero", "band-k-zero", "band-non-band",
        "oracle-band-non-band", "check-missing-sequence", "contains-missing-file"])
def test_bad_module_or_sequence_input_exit_three(capsys, argv, message):
    code, doc = run_cli(capsys, *argv)
    assert code == 3
    assert doc["command"] == list(argv)
    assert message in doc["error"]


def test_usage_error_exit_two(capsys):
    assert main(["mgs"]) == 2
    capsys.readouterr()


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


def _modules_after(code: str) -> set[str]:
    """Modules loaded in a fresh interpreter after running code, which
    prints nothing to stderr; mgslab is importable as in this process."""
    import mgslab

    src = os.path.dirname(os.path.dirname(mgslab.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    probe = code + "\nimport sys\nsys.stderr.write(' '.join(sys.modules))\n"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
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
