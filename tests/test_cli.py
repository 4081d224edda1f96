"""Command-line behavior: outputs, exit codes, error JSON, determinism."""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from sigrel import (
    TheoremInconsistencyError,
    distribution_to_json,
    format_rational,
    parse_rational,
    system_to_json,
)
from sigrel import cli, distribution
from sigrel.cli import run
from sigrel.structure import from_path_sets, from_truth_table

from conftest import make_dist, shifted_ladders_dist, staggered_pairs_dist


@pytest.fixture()
def files(tmp_path):
    """Write the standard system and distribution files once per test."""

    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return {
        "two_of_three": write(
            "two_of_three.json",
            {"n": 3, "kind": "paths", "paths": [[1, 2], [1, 3], [2, 3]]},
        ),
        "series2": write("series2.json", system_to_json(from_truth_table(2, "0001"))),
        "bridge": write(
            "bridge.json", system_to_json(from_path_sets(3, [[1, 2], [1, 3]]))
        ),
        "pairs": write("pairs.json", distribution_to_json(staggered_pairs_dist())),
        "ladders": write("ladders.json", distribution_to_json(shifted_ladders_dist())),
        "tied": write(
            "tied.json", distribution_to_json(make_dist(3, [((1, 1, 2), 1)]))
        ),
        "dir": tmp_path,
    }


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""
    return json.loads(captured.out)


def run_error(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing on stdout when failing
    return code, json.loads(captured.err)


class TestSignatureCommand:
    def test_two_of_three_golden_bytes(self, files, capsys):
        assert run(["signature", "--system", files["two_of_three"]]) == 0
        out = capsys.readouterr().out
        assert out == '[\n  "0/1",\n  "1/1",\n  "0/1"\n]\n'

    def test_bridge(self, files, capsys):
        payload = run_json(capsys, ["signature", "--system", files["bridge"]])
        assert payload == ["1/3", "2/3", "0/1"]


class TestProbSignatureCommand:
    def test_bridge_on_ladders(self, files, capsys):
        payload = run_json(
            capsys,
            ["prob-signature", "--system", files["bridge"], "--dist", files["ladders"]],
        )
        assert payload == {
            "quality_based": ["1/4", "3/4", "0/1"],
            "atom_oracle": ["1/4", "3/4", "0/1"],
            "agree": True,
        }

    def test_ties_exit_2(self, files, capsys):
        code, err = run_error(
            capsys,
            ["prob-signature", "--system", files["bridge"], "--dist", files["tied"]],
        )
        assert code == 2
        assert err["error"] == "precondition"
        assert "tied" in err["detail"]

    def test_size_mismatch_exit_2_before_the_quality(self, files, capsys, tmp_path):
        # refused before the 2**40 subset qualities are formed, so this returns at once
        path = tmp_path / "wide.json"
        law = make_dist(40, [(tuple(range(1, 41)), 1)])
        path.write_text(json.dumps(distribution_to_json(law)))
        start = time.perf_counter()
        code, err = run_error(
            capsys, ["prob-signature", "--system", files["bridge"], "--dist", str(path)]
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err == {
            "error": "precondition",
            "detail": "system and distribution disagree on component count",
        }


class TestReliabilityCommand:
    def test_full_curve(self, files, capsys):
        payload = run_json(
            capsys, ["reliability", "--system", files["series2"], "--dist", files["pairs"]]
        )
        assert payload == {
            "breakpoints": ["1/1", "2/1", "3/1", "4/1"],
            "values": ["1/1", "1/2", "1/4", "0/1", "0/1"],
        }

    def test_single_time(self, files, capsys):
        payload = run_json(
            capsys,
            [
                "reliability",
                "--system",
                files["series2"],
                "--dist",
                files["pairs"],
                "--t",
                "5/2",
            ],
        )
        assert payload == {"t": "5/2", "value": "1/4"}

    def test_bad_time_exit_2(self, files, capsys):
        code, err = run_error(
            capsys,
            [
                "reliability",
                "--system",
                files["series2"],
                "--dist",
                files["pairs"],
                "--t",
                "soon",
            ],
        )
        assert code == 2
        assert err["error"] == "usage"

    def test_size_mismatch_exit_2(self, files, capsys):
        code, err = run_error(
            capsys,
            ["reliability", "--system", files["bridge"], "--dist", files["pairs"]],
        )
        assert code == 2
        assert err["error"] == "precondition"


class TestDiagnoseCommand:
    def test_pairs(self, files, capsys):
        payload = run_json(capsys, ["diagnose", "--dist", files["pairs"]])
        assert payload["mode"] == "predicted"
        assert payload["conditions"] == {
            "has_ties": False,
            "q_symmetric": True,
            "states_exchangeable_everywhere": True,
            "lifetimes_exchangeable": False,
            "weakly_exchangeable": False,
            "condition_q_everywhere": True,
        }
        assert payload["verdicts"] == {
            "boland_repr_all_systems": True,
            "prob_repr_all_systems": True,
            "both_representations": True,
        }

    def test_inconsistency_exit_3(self, files, capsys, monkeypatch):
        """A condition routine that contradicts the paper's implications: the tied law
        is neither lifetime nor state exchangeable, and is reported as the first only."""
        monkeypatch.setattr(distribution, "_lifetime_exchangeability_witness", lambda d: None)
        code, err = run_error(capsys, ["diagnose", "--dist", files["tied"]])
        assert code == 3
        detail = "the conditions break: lifetimes_exchangeable_implies_states_exchangeable"
        assert err == {"error": "inconsistency", "detail": detail}


class TestOrderingLimit:
    """`diagnose` refuses n above ORDERING_LIMIT before any condition is evaluated."""

    @staticmethod
    def two_atom_law(tmp_path, n):
        # 1..n and its reverse: two realized orderings, and the n! - 2 others skipped.
        rows = [(tuple(range(1, n + 1)), Fraction(1, 2)), (tuple(range(n, 0, -1)), Fraction(1, 2))]
        path = tmp_path / f"two_atoms_{n}.json"
        path.write_text(json.dumps(distribution_to_json(make_dist(n, rows))))
        return str(path)

    def test_n9_runs(self, tmp_path):
        # One child process: stdout goes to a file, and the child reports its own peak RSS
        # through a side file, so the 34 MB report is rendered once and measured alone.
        child = (
            "import resource, sys\n"
            "from sigrel.cli import run\n"
            "code = run(sys.argv[1:4])\n"
            "sys.stdout.flush()\n"
            "with open(sys.argv[4], 'w') as fh:\n"
            "    fh.write(str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))\n"
            "sys.exit(code)\n"
        )
        out, maxrss = tmp_path / "out.json", tmp_path / "maxrss"
        src = str(Path(cli.__file__).resolve().parents[1])
        law = self.two_atom_law(tmp_path, 9)
        with out.open("w") as fh:
            proc = subprocess.run(
                [sys.executable, "-c", child, "diagnose", "--dist", law, str(maxrss)],
                stdout=fh,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": src},
            )
        assert proc.returncode == 0
        assert proc.stderr == ""
        text = out.read_text(encoding="utf-8")
        assert text.count("\n    [\n") == math.factorial(9) - 2  # the skipped orderings
        # ru_maxrss is in KiB on Linux; joining the whole report into one string peaks near 360 MB.
        assert int(maxrss.read_text()) < 200 * 1024

    @pytest.mark.parametrize("n", [10, 20, 40])
    def test_above_the_limit_exit_2(self, capsys, tmp_path, n):
        path = self.two_atom_law(tmp_path, n)
        start = time.perf_counter()
        code, err = run_error(capsys, ["diagnose", "--dist", path])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err == {
            "error": "precondition",
            "detail": f"the condition scan supports n <= 9, got n={n}",
        }


class TestVerifyCommand:
    def test_ladders_coherent(self, files, capsys):
        payload = run_json(
            capsys, ["verify", "--dist", files["ladders"], "--class", "coherent"]
        )
        assert payload["mode"] == "verified"
        assert payload["systems_checked"] == 9
        assert payload["verdicts"]["boland_repr_all_systems"] is True
        assert payload["verdicts"]["prob_repr_all_systems"] is False
        assert "prob_repr" in payload["witnesses"]
        assert all(c["consistent"] for c in payload["theorem_checks"])

    def test_deterministic_output(self, files, capsys):
        assert run(["verify", "--dist", files["ladders"], "--class", "coherent"]) == 0
        first = capsys.readouterr().out
        assert run(["verify", "--dist", files["ladders"], "--class", "coherent"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_class_required(self, files, capsys):
        code, err = run_error(capsys, ["verify", "--dist", files["ladders"]])
        assert code == 2
        assert err["error"] == "usage"

    def test_inconsistency_exit_3(self, files, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise TheoremInconsistencyError("sides disagree")

        monkeypatch.setattr(cli, "verify_theorems", explode)
        code, err = run_error(
            capsys, ["verify", "--dist", files["ladders"], "--class", "coherent"]
        )
        assert code == 3
        assert err == {"error": "inconsistency", "detail": "sides disagree"}

    def test_enumeration_bound_exit_2(self, files, capsys, tmp_path):
        big = make_dist(6, [((1, 2, 3, 4, 5, 6), 1)])
        path = tmp_path / "big.json"
        path.write_text(json.dumps(distribution_to_json(big)))
        code, err = run_error(
            capsys, ["verify", "--dist", str(path), "--class", "coherent"]
        )
        assert code == 2
        assert err["error"] == "precondition"


class TestBasisCommand:
    def test_rank_check(self, capsys):
        payload = run_json(capsys, ["basis", "--n", "4", "--check-rank"])
        assert payload["n"] == 4
        assert payload["class"] == "coherent"
        assert payload["count"] == 15
        assert payload["rank"] == 15
        assert payload["expected"] == 15

    def test_without_rank(self, capsys):
        payload = run_json(capsys, ["basis", "--n", "3", "--class", "semicoherent"])
        assert payload["count"] == 7
        assert "rank" not in payload

    def test_systems_reload(self, capsys):
        from sigrel import system_from_json

        payload = run_json(capsys, ["basis", "--n", "3", "--class", "coherent"])
        for entry in payload["systems"]:
            phi = system_from_json(entry)
            assert phi.coherent

    def test_basis_bound_exit_2(self, capsys):
        # refused before any table is built, so this returns at once
        code, err = run_error(capsys, ["basis", "--n", "30"])
        assert code == 2
        assert err["error"] == "precondition"
        assert "n <= 12" in err["detail"]


class TestErrorPaths:
    def test_missing_file_exit_1(self, capsys):
        code, err = run_error(capsys, ["signature", "--system", "no-such-file.json"])
        assert code == 1
        assert err["error"] == "input"

    def test_invalid_json_exit_1(self, files, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        code, err = run_error(capsys, ["signature", "--system", str(path)])
        assert code == 1
        assert err["error"] == "input"

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
            (b'{"n": ' + b"9" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
            (b"[" * 100000, "maximum recursion depth exceeded"),
        ],
        ids=["non-utf8", "long-int-literal", "deep-nesting"],
    )
    def test_undecodable_json_exit_1(self, capsys, tmp_path, content, reason):
        path = tmp_path / "undecodable.json"
        path.write_bytes(content)
        code, err = run_error(capsys, ["signature", "--system", str(path)])
        assert code == 1
        assert err["error"] == "input"
        assert err["detail"].startswith(f"{path} is not valid JSON: {reason}")

    def test_invalid_distribution_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad_dist.json"
        path.write_text(
            json.dumps({"n": 2, "atoms": [{"x": ["1", "2"], "p": "1/2"}]})
        )
        code, err = run_error(capsys, ["diagnose", "--dist", str(path)])
        assert code == 1
        assert err["error"] == "input"
        assert "off by" in err["detail"]

    def test_nonmonotone_system_exit_1(self, capsys, tmp_path):
        path = tmp_path / "drop.json"
        path.write_text(
            json.dumps({"n": 3, "kind": "truth_table", "bits": "00010000"})
        )
        code, err = run_error(capsys, ["signature", "--system", str(path)])
        assert code == 1
        assert "not monotone" in err["detail"]

    def test_path_set_bound_exit_2(self, capsys, tmp_path):
        # refused before the 2**40 states are walked, so this returns at once
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"n": 40, "kind": "paths", "paths": [[1, 2]]}))
        code, err = run_error(capsys, ["signature", "--system", str(path)])
        assert code == 2
        assert err["error"] == "precondition"
        assert "n <= 18" in err["detail"]

    def test_component_count_below_two_exit_1(self, capsys, tmp_path):
        path = tmp_path / "negative.json"
        path.write_text(json.dumps({"n": -1, "kind": "truth_table", "bits": "01"}))
        code, err = run_error(capsys, ["signature", "--system", str(path)])
        assert code == 1
        assert err["error"] == "input"
        assert "field 'n' must be at least 2, got -1" in err["detail"]

    @pytest.mark.parametrize("n", [100000, 10**12])
    def test_truth_table_too_short_for_n_exit_1(self, capsys, tmp_path, n):
        # refused before 2**n is built or printed, so this returns at once
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": n, "kind": "truth_table", "bits": "01"}))
        start = time.perf_counter()
        code, err = run_error(capsys, ["signature", "--system", str(path)])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert err["error"] == "input"
        assert err["detail"] == f"{path}: expected 2**{n} table entries for n={n}, got 2"

    def test_unknown_command_exit_2(self, capsys):
        code, err = run_error(capsys, ["frobnicate"])
        assert code == 2
        assert err["error"] == "usage"

    def test_missing_required_option_exit_2(self, capsys):
        code, err = run_error(capsys, ["signature"])
        assert code == 2
        assert err["error"] == "usage"


class TestDecimalExponentLimit:
    """Decimal exponents past the limit are refused before any expansion, and values
    whose numerator or denominator has more than 4300 digits when they are read."""

    def test_parse_rational_bounds_the_exponent(self):
        for text, value in (("1e4299", 10**4299), ("0.1e4300", 10**4299)):
            assert parse_rational(text) == value
            assert format_rational(parse_rational(text)) == f"{value}/1"
        for text in ("1e4300", "99e4299", "1e-4300"):
            with pytest.raises(ValueError, match="limit of 4300"):
                parse_rational(text)
        assert parse_rational("25e-4300") == Fraction(25, 10**4300)
        assert parse_rational("1.5E+0_0_3") == 1500
        for text in ("1e4301", "1e-4301", "2E9_999", "1e" + "9" * 5000):
            with pytest.raises(ValueError, match="limit of 4300"):
                parse_rational(text)

    def test_distribution_file_exit_1(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(
            json.dumps({"n": 2, "atoms": [{"x": ["1e999999999", "2"], "p": "1"}]})
        )
        code, err = run_error(capsys, ["diagnose", "--dist", str(path)])
        assert code == 1
        assert err["error"] == "input"
        assert "limit of 4300" in err["detail"]

    def test_time_option_exit_2(self, files, capsys):
        argv = ["reliability", "--system", files["series2"], "--dist", files["pairs"]]
        code, err = run_error(capsys, [*argv, "--t", "1e999999999"])
        assert code == 2
        assert err["error"] == "usage"
        assert "limit of 4300" in err["detail"]

    def test_time_past_the_digit_limit_exit_2(self, files, capsys):
        argv = ["reliability", "--system", files["series2"], "--dist", files["pairs"]]
        code, err = run_error(capsys, [*argv, "--t", "1e4300"])
        assert code == 2
        assert err["error"] == "usage"
        assert "limit of 4300" in err["detail"]

    def test_lifetime_past_the_digit_limit_exit_1(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"n": 2, "atoms": [{"x": ["1e4300", "2"], "p": "1"}]}))
        code, err = run_error(capsys, ["diagnose", "--dist", str(path)])
        assert code == 1
        assert err["error"] == "input"
        assert "limit of 4300" in err["detail"]

    def test_format_rational_refuses_what_it_cannot_write(self):
        with pytest.raises(ValueError, match="cannot write .* limit of 4300"):
            format_rational(Fraction(1, 10**4300))


# The --help text of the top level and of each command at COLUMNS=80.
HELP_TEXTS = {
    "": """\
usage: sigrel [-h]
              {signature,prob-signature,reliability,diagnose,verify,basis} ...

Exact signature and reliability computations on JSON files.

positional arguments:
  {signature,prob-signature,reliability,diagnose,verify,basis}
    signature           design signature of a system
    prob-signature      probability signature via the quality function and via
                        the atom oracle
    reliability         survival curve, or one value at --t
    diagnose            conditions and predicted verdicts, no enumeration
    verify              measure the verdicts over an enumerated class and
                        cross-check them
    basis               spanning family of systems plus its rank

options:
  -h, --help            show this help message and exit
""",
    "signature": """\
usage: sigrel signature [-h] --system SYSTEM

options:
  -h, --help       show this help message and exit
  --system SYSTEM  system JSON file
""",
    "prob-signature": """\
usage: sigrel prob-signature [-h] --system SYSTEM --dist DIST

options:
  -h, --help       show this help message and exit
  --system SYSTEM  system JSON file
  --dist DIST      distribution JSON file
""",
    "reliability": """\
usage: sigrel reliability [-h] --system SYSTEM --dist DIST [--t T]

options:
  -h, --help       show this help message and exit
  --system SYSTEM  system JSON file
  --dist DIST      distribution JSON file
  --t T            time as "a/b" or an integer
""",
    "diagnose": """\
usage: sigrel diagnose [-h] --dist DIST

options:
  -h, --help   show this help message and exit
  --dist DIST  distribution JSON file
""",
    "verify": """\
usage: sigrel verify [-h] --dist DIST --class {coherent,semicoherent}

options:
  -h, --help            show this help message and exit
  --dist DIST           distribution JSON file
  --class {coherent,semicoherent}
                        system class to enumerate
""",
    "basis": """\
usage: sigrel basis [-h] --n N [--class {coherent,semicoherent}]
                    [--check-rank]

options:
  -h, --help            show this help message and exit
  --n N                 number of components
  --class {coherent,semicoherent}
                        system class (default: coherent)
  --check-rank          also report the exact rank and the full-span target
""",
}


class TestHelpTexts:
    @pytest.mark.parametrize("command", sorted(HELP_TEXTS))
    def test_help_text_is_unchanged(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (HELP_TEXTS[command], "")


class TestModuleEntryPoint:
    def test_python_m_matches_run(self, files, capsys):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        for argv in (
            ["signature", "--system", files["two_of_three"]],
            ["diagnose", "--dist", files["pairs"]],
            ["diagnose", "--dist", files["tied"] + ".missing"],
            ["frobnicate"],
        ):
            code = run(argv)
            captured = capsys.readouterr()
            proc = subprocess.run(
                [sys.executable, "-m", "sigrel.cli", *argv], capture_output=True, text=True, env=env
            )
            assert (proc.stdout, proc.stderr, proc.returncode) == (captured.out, captured.err, code)
        assert code == 2


BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_calls_print_the_recorded_bytes(capsys, tmp_path):
    """Every call of every benchmark workload, built at the seed of
    ``perfbench/digests.json``, exits 0 and prints stdout with the recorded sha256."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses looks its module up here
    spec.loader.exec_module(workloads)
    recorded = json.loads((BENCH / "digests.json").read_text())
    assert sorted(recorded["workloads"]) == sorted(workloads.WORKLOADS)
    for name, digests in recorded["workloads"].items():
        work = tmp_path / name
        work.mkdir()
        calls = workloads.build(name, recorded["seed"], work)
        assert sorted(call.label for call in calls) == sorted(digests)
        for call in calls:
            assert run(call.args) == 0, call.label
            stdout = capsys.readouterr().out.encode()
            assert hashlib.sha256(stdout).hexdigest() == digests[call.label], call.label
