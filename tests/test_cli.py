"""End-to-end tests for the command line: output, exit codes, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rivershare import cli
from rivershare.cli import main, parse_rule
from rivershare.core import ParameterError, RuleKind, RuleSpec, ValidationResult
from rivershare.data_io import builtin_nile, dump_dataset
from rivershare.analysis import Family, family_member


def run_child(argv, **kwargs):
    """Run `argv` in a fresh interpreter that imports this checkout's package."""
    source = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return subprocess.run(argv, capture_output=True, env={**os.environ, "PYTHONPATH": path}, **kwargs)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# rule spec parsing


def test_parse_rule_round_trips_labels():
    for text, kind in [
        ("nt", RuleKind.NO_TRANSFER),
        ("eft", RuleKind.EGALITARIAN_FULL_TRANSFER),
        ("ept", RuleKind.EGALITARIAN_PARTIAL_TRANSFER),
        ("shapley", RuleKind.SHAPLEY),
    ]:
        spec = parse_rule(text)
        assert spec.kind is kind
        assert spec.label() == text
    assert parse_rule("compromise:0.5").weight == 0.5
    assert parse_rule("partial:0.25").weight == 0.25
    assert parse_rule("Shapley").kind is RuleKind.SHAPLEY
    alpha = parse_rule("alpha:0.25,0.5,1")
    assert tuple(alpha.retention) == (0.25, 0.5, 1.0)
    assert alpha.fixed_agent_count == 4
    rng = random.Random(5)
    for _ in range(200):
        for spec in (
            RuleSpec.compromise(rng.random()),
            RuleSpec.partial_compromise(rng.random()),
            RuleSpec.retention_rule([rng.random() for _ in range(rng.randint(1, 9))]),
        ):
            assert parse_rule(spec.label()) == spec


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("sharpley", "unknown rule"),
        ("nt:1", "takes no parameter"),
        ("compromise:", "expected a weight"),
        ("compromise:x", "'x'"),
        ("compromise:1.5", "[0, 1]"),
        ("partial:-0.1", "[0, 1]"),
        ("alpha:", "retention shares"),
        ("alpha:0.5,two", "'two'"),
        ("alpha:0.5,1.5", "[0, 1]"),
    ],
)
def test_parse_rule_errors_name_the_token(text, fragment):
    with pytest.raises(ParameterError) as err:
        parse_rule(text)
    assert fragment in str(err.value)


# ---------------------------------------------------------------------------
# allocate


def test_allocate_shapley_example(capsys):
    code, out, err = run_cli(capsys, "allocate", "--inflows", "50,30,10,10", "--rule", "shapley")
    assert code == 0
    for cell in ("12.5000", "22.5000", "27.5000", "37.5000"):
        assert cell in out


def test_allocate_nt_is_identity(capsys):
    code, out, _ = run_cli(
        capsys, "allocate", "--inflows", "50,30,10,10", "--rule", "nt", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["command"] == "allocate"
    assert record["outputs"]["allocation"] == [50.0, 30.0, 10.0, 10.0]
    assert record["outputs"]["valid"] is True
    assert record["seed"] is None
    assert "version" in record


def test_allocate_alpha_map_matches_shapley(capsys):
    code, out, _ = run_cli(
        capsys,
        "allocate",
        "--inflows", "50,30,10,10",
        "--rule", "alpha:0.25,0.3333333333,0.5",
        "--json",
    )
    assert code == 0
    got = json.loads(out)["outputs"]["allocation"]
    for value, want in zip(got, (12.5, 22.5, 27.5, 37.5)):
        assert value == pytest.approx(want, abs=1e-8)


def test_allocate_from_builtin_dataset(capsys):
    code, out, _ = run_cli(capsys, "allocate", "--dataset", "nile", "--rule", "eft", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["inputs"]["agents"][0] == "Tanzania"
    for value, want in zip(record["outputs"]["allocation"], (0.0, 4.2, 9.6, 18.4, 83.7)):
        assert value == pytest.approx(want, abs=1e-9)


def test_allocate_from_csv_file(capsys, tmp_path):
    path = tmp_path / "basin.csv"
    path.write_text("agent,inflow\nup,3\nmid,2\ndown,1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "allocate", "--dataset", str(path), "--rule", "shapley", "--json")
    assert code == 0
    got = json.loads(out)["outputs"]["allocation"]
    assert got == pytest.approx([1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "argv",
    [
        ("allocate", "--inflows", "50,30,x", "--rule", "nt"),
        ("allocate", "--inflows", "50,30", "--rule", "sharpley"),
        ("allocate", "--inflows", "50,30", "--rule", "compromise:2"),
        ("allocate", "--inflows", "50", "--rule", "nt"),
        ("allocate", "--rule", "nt"),
        ("allocate", "--inflows", "1,2", "--dataset", "nile", "--rule", "nt"),
        ("allocate", "--dataset", "nile", "--rule", "alpha:0.5,0.5"),
        ("allocate", "--dataset", "missing.csv", "--rule", "nt"),
    ],
)
def test_allocate_rejects_bad_input(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")


def test_allocate_overflowing_total_is_one_error_line(capsys):
    code, out, err = run_cli(capsys, "allocate", "--inflows", "1e308,1e308", "--rule", "shapley")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("value", ["-1", "nan"])
@pytest.mark.parametrize(
    "argv",
    [
        ("allocate", "--inflows", "1,2", "--rule", "shapley"),
        ("axioms", "--rule", "shapley", "--trials", "1"),
        ("fit", "--dataset", "nile", "--family", "compromise"),
        ("case-study",),
    ],
)
def test_tolerance_must_be_finite_and_non_negative(capsys, argv, value):
    code, out, err = run_cli(capsys, *argv, "--tolerance", value)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --tolerance") and len(err.splitlines()) == 1


def test_allocate_failed_validation_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(cli, "validate_allocation", lambda *a, **k: ValidationResult(False, "forced"))
    code, out, _ = run_cli(capsys, "allocate", "--inflows", "1,2", "--rule", "nt", "--json")
    assert code == 2
    assert json.loads(out)["outputs"]["valid"] is False
    code, out, _ = run_cli(capsys, "allocate", "--inflows", "1,2", "--rule", "nt")
    assert code == 2
    assert "VALIDATION FAILED: forced" in out


def test_usage_errors_exit_one(capsys):
    for argv in [
        (),
        ("allocate",),  # missing --rule
        ("frobnicate",),
        ("allocate", "--rule", "nt", "--inflows"),  # missing value
        ("axioms", "--rule", "shapley", "--trials", "x"),
        ("allocate", "--rule", "nt", "--inflows", "1,2", "--bogus"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err


def test_version_and_help_exit_zero(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "rivershare" in out
    assert main(["--help"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# axioms


def test_axioms_pass_and_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "axioms", "--rule", "shapley", "--axioms", "balance", "--trials", "300", "--seed", "7"
    )
    assert code == 0
    assert "balance: pass" in out


def test_axioms_violation_exits_two_with_counterexample(capsys):
    code, out, _ = run_cli(
        capsys,
        "axioms", "--rule", "compromise:0.5", "--axioms", "balance",
        "--trials", "300", "--seed", "7", "--json",
    )
    assert code == 2
    record = json.loads(out)
    assert record["outputs"]["passed"] is False
    report = record["outputs"]["reports"][0]
    assert report["axiom"] == "balance"
    assert report["violations"] > 0
    assert report["first_counterexample"] is not None


def test_axioms_all_for_no_transfer(capsys):
    code, out, _ = run_cli(
        capsys, "axioms", "--rule", "nt", "--axioms", "all", "--trials", "120", "--seed", "3", "--json"
    )
    assert code == 2
    record = json.loads(out)
    verdicts = {r["axiom"]: r["violations"] == 0 for r in record["outputs"]["reports"]}
    assert len(verdicts) == 9
    assert not verdicts["progressivity"]
    assert not verdicts["balance"]
    for name in (
        "scale-invariance", "upstream-invariance", "downstream-impartiality",
        "order-preservation", "regressivity", "equal-source-inflows",
        "equal-upstream-total-inflow",
    ):
        assert verdicts[name], name


@pytest.mark.parametrize(
    "argv",
    [
        ("axioms", "--rule", "shapley", "--axioms", "fairness"),
        ("axioms", "--rule", "shapley", "--trials", "0"),
        ("axioms", "--rule", "shapley", "--min-agents", "5", "--max-agents", "3"),
        ("axioms", "--rule", "nope"),
        ("axioms", "--rule", "shapley", "--max-agents", "100000"),
        ("axioms", "--rule", "shapley", "--trials", "100000000000000000000"),
        ("axioms", "--rule", "shapley", "--trials", "1000001"),
    ],
)
def test_axioms_rejects_bad_input(capsys, monkeypatch, argv):
    # every one of these is rejected before any instance is generated
    def fail(*args, **kwargs):
        raise AssertionError("axiom suite ran")

    monkeypatch.setattr(cli, "run_axiom_suite", fail)
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")


def test_axioms_accepts_the_largest_trial_count(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_axiom_suite", lambda rule, **kwargs: calls.append(kwargs) or [])
    code, _, err = run_cli(capsys, "axioms", "--rule", "shapley", "--trials", "1000000")
    assert code == 0 and err == ""
    assert calls[0]["trials"] == 1_000_000


def test_axioms_json_is_deterministic(capsys):
    argv = (
        "axioms", "--rule", "compromise:0.3", "--axioms",
        "scale-invariance,balance", "--trials", "150", "--seed", "11", "--json",
    )
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


# ---------------------------------------------------------------------------
# fit


def test_fit_nile_compromise(capsys):
    code, out, _ = run_cli(capsys, "fit", "--dataset", "nile", "--family", "compromise", "--json")
    assert code == 0
    record = json.loads(out)
    fit = record["outputs"]["fit"]
    assert abs(fit["parameter"] - 0.068) <= 0.001
    assert not fit["clipped"]
    assert record["outputs"]["legitimacy"]["entries"][1]["classification"] == "below-lower"


def test_fit_nile_partial_clips_to_zero(capsys):
    code, out, _ = run_cli(capsys, "fit", "--dataset", "nile", "--family", "partial", "--json")
    assert code == 0
    fit = json.loads(out)["outputs"]["fit"]
    assert fit["parameter"] == 0.0
    assert fit["clipped"] is True
    assert fit["unconstrained_parameter"] < 0.0


def test_fit_recovers_synthetic_member(capsys, tmp_path):
    e = builtin_nile().inflows
    member = family_member(e, Family.COMPROMISE, 0.3)
    rows = ["agent,inflow,withdrawal"]
    for i in range(len(e)):
        rows.append(f"a{i},{e[i]!r},{member[i]!r}")
    path = tmp_path / "synthetic.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "fit", "--dataset", str(path), "--family", "compromise", "--json")
    assert code == 0
    fit = json.loads(out)["outputs"]["fit"]
    assert abs(fit["parameter"] - 0.3) <= 1e-9
    assert fit["residual"] <= 1e-9


def test_fit_writes_distance_curve(capsys, tmp_path):
    curve = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        capsys,
        "fit", "--dataset", "nile", "--family", "compromise",
        "--curve", str(curve), "--curve-points", "11",
    )
    assert code == 0
    assert f"distance curve written to {curve}" in out
    lines = curve.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "parameter,distance"
    assert len(lines) == 12
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 0.0
    assert float(last[0]) == 1.0
    # distance at the no-transfer end of the family, full-precision observed
    assert float(last[1]) == pytest.approx(92.79, abs=0.01)


@pytest.mark.parametrize(
    "argv",
    [
        ("fit", "--dataset", "nile", "--family", "shapley"),
        ("fit", "--dataset", "missing.csv", "--family", "compromise"),
        ("fit", "--dataset", "nile", "--family", "compromise", "--curve-points", "1",
         "--curve", "x.csv"),
        ("fit", "--dataset", "nile", "--family", "compromise", "--curve-points", "1000000000",
         "--curve", "x.csv"),
    ],
)
def test_fit_rejects_bad_input(capsys, monkeypatch, argv):
    # every one of these is rejected before the dataset is fitted
    def fail(*args, **kwargs):
        raise AssertionError("dataset was fitted")

    monkeypatch.setattr(cli, "fit_family", fail)
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("fit", "--dataset", "nile", "--family", "compromise", "--nodes", "100000000"),
        ("case-study", "--nodes", "100000000"),
        ("case-study", "--decimals", "-3"),
    ],
)
def test_integral_inputs_are_bounded(capsys, forbid_node_rule, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_fit_requires_withdrawals(capsys, tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("agent,inflow\na,1\nb,2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "fit", "--dataset", str(path), "--family", "compromise")
    assert code == 1
    assert "withdrawal" in err


# ---------------------------------------------------------------------------
# case-study


def test_case_study_passes_and_reports(capsys):
    code, out, _ = run_cli(capsys, "case-study")
    assert code == 0
    assert "all 19 reference checks passed" in out
    assert "Tanzania" in out and "shapley" in out


def test_case_study_json_payload(capsys):
    code, out, _ = run_cli(capsys, "case-study", "--json")
    assert code == 0
    record = json.loads(out)
    outputs = record["outputs"]
    assert outputs["all_ok"] is True
    assert outputs["fits"]["compromise"]["parameter"] == pytest.approx(0.068, abs=0.001)
    assert outputs["integrals"]["compromise"] == pytest.approx(46.52, abs=0.01)
    assert outputs["integrals"]["partial"] == pytest.approx(78.27, abs=0.01)
    assert outputs["table"]["observed"] == [5.4, 0.7, 0.7, 28.1, 81.0]


def test_case_study_full_precision_exits_two(capsys):
    code, out, _ = run_cli(capsys, "case-study", "--full-precision")
    assert code == 2
    assert "REFERENCE CHECK FAILED" in out
    assert "integral:" in out


def test_case_study_byte_identical_across_processes(tmp_path):
    argv = [sys.executable, "-m", "rivershare.cli", "case-study", "--json"]
    first = run_child(argv, check=True)
    second = run_child(argv, check=True)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout.decode())["outputs"]["all_ok"] is True


_COLD_PATH_SCRIPT = """
import sys

import rivershare
from rivershare.cli import main

codes = [
    main(["allocate", "--inflows", "50,30,10,10", "--rule", "shapley", "--json"]),
    main(["axioms", "--rule", "shapley", "--axioms", "balance", "--trials", "20", "--json"]),
    main(["allocate", "--inflows", "1,-2", "--rule", "nt"]),
    main(["fit", "--dataset", "nile", "--family", "compromise", "--curve", sys.argv[1],
          "--curve-points", "1000000000"]),
]
assert codes == [0, 0, 1, 1], codes
assert "numpy" not in sys.modules, "numpy loaded without a distance integral"

nile = rivershare.builtin_nile()
rivershare.integrate_distance(
    nile.inflows, nile.normalized_withdrawals(), rivershare.Family.COMPROMISE
)
assert "numpy" in sys.modules
print("ok")
"""


def test_numpy_is_loaded_only_by_a_distance_integral(tmp_path):
    argv = [sys.executable, "-c", _COLD_PATH_SCRIPT, str(tmp_path / "curve.csv")]
    done = run_child(argv, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("ok\n")


def test_dataset_round_trip_through_cli(capsys, tmp_path):
    # dump the embedded dataset, reload it through the CLI, same allocation
    ds = builtin_nile()
    path = tmp_path / "nile.json"
    path.write_text(dump_dataset(ds, "json"), encoding="utf-8")
    _, from_file, _ = run_cli(capsys, "allocate", "--dataset", str(path), "--rule", "shapley", "--json")
    _, from_builtin, _ = run_cli(capsys, "allocate", "--dataset", "nile", "--rule", "shapley", "--json")
    assert (
        json.loads(from_file)["outputs"]["allocation"]
        == json.loads(from_builtin)["outputs"]["allocation"]
    )


# ---------------------------------------------------------------------------
# fuzzing the whole command line


_RULES = (
    ["nt", "shapley", "compromise:0.5", "partial:0.25", "alpha:0.5,0.5"],
    ["sharpley", "compromise:2", "alpha:x", ""],
)
_TOLERANCES = (["1e-9", "0"], ["-1", "nan", "x"])


@pytest.fixture(scope="module")
def fuzz_grammar(tmp_path_factory):
    """Flags per subcommand, each with its good and its bad values.

    Every accepted value keeps the work small (at most 5 trials on rivers
    of at most 10 agents, at most 64 quadrature nodes), and every path a
    command may write to lies in a temporary directory.  A flag that takes
    no value maps to None.
    """
    root = tmp_path_factory.mktemp("fuzz")
    basin = root / "basin.csv"
    basin.write_text("agent,inflow,withdrawal\nup,3,1\nmid,2,2\ndown,1,3\n", encoding="utf-8")
    plain = root / "plain.csv"
    plain.write_text("agent,inflow\na,1\nb,2\n", encoding="utf-8")
    broken = root / "broken.csv"
    broken.write_text("agent,inflow\na,1\nb,-2\n", encoding="utf-8")
    folder = root / "folder.csv"
    folder.mkdir()
    datasets = (
        ["nile", str(basin), str(plain)],
        ["missing.csv", str(broken), str(folder), "x.txt"],
    )
    return {
        "allocate": {
            "--rule": _RULES,
            "--inflows": (["50,30,10,10", "1,2", "0,0,0"], ["1,-2", "x", "1e308,1e308", "5", ""]),
            "--dataset": datasets,
            "--tolerance": _TOLERANCES,
            "--json": None,
        },
        "axioms": {
            "--rule": _RULES,
            "--axioms": (["all", "balance", "scale-invariance,balance"], ["fairness"]),
            "--trials": (["1", "3", "5"], ["0", "-1", "x", "100000000000000000000"]),
            "--seed": (["0", "7"], ["x"]),
            "--min-agents": (["2", "3"], ["0", "x"]),
            "--max-agents": (["2", "5", "10"], ["100000", "x"]),
            "--strict-impartiality": None,
            "--tolerance": _TOLERANCES,
            "--json": None,
        },
        "fit": {
            "--dataset": datasets,
            "--family": (["compromise", "partial"], ["shapley"]),
            "--nodes": (["8", "64"], ["0", "1025", "100000000", "x"]),
            "--curve": ([str(root / "curve.csv")], [str(root / "no-such-dir" / "curve.csv")]),
            "--curve-points": (["2", "11"], ["1", "1000000000", "x"]),
            "--tolerance": _TOLERANCES,
            "--json": None,
        },
        "case-study": {
            "--decimals": (["1", "0"], ["-3", "x"]),
            "--full-precision": None,
            "--nodes": (["8", "64"], ["0", "513", "x"]),
            "--tolerance": _TOLERANCES,
            "--json": None,
        },
    }


# the flags each command needs, one flag drawn from each group; `axioms`
# always gets `--trials`, since its default of 1000 is too slow here
_REQUIRED = {
    "allocate": (("--rule",), ("--inflows", "--dataset")),
    "axioms": (("--rule",), ("--trials",)),
    "fit": (("--dataset",), ("--family",)),
}


@st.composite
def _argv(draw, grammar):
    command = draw(st.sampled_from([*grammar] * 4 + ["frobnicate", "--version", "--help"]))
    flags = grammar.get(command, {})
    every_flag = sorted({flag for options in grammar.values() for flag in options} | {"--bogus"})

    def value(flag):
        good, bad = flags[flag]
        return draw(st.sampled_from(good if draw(st.integers(0, 3)) else bad))

    argv = [command]
    for group in _REQUIRED.get(command, ()):
        # now and then a required flag is left out, but never `--trials`
        if group == ("--trials",) or draw(st.integers(0, 9)):
            flag = draw(st.sampled_from(group))
            argv += [flag, value(flag)]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        # mostly this command's own flags, now and then any flag at all
        pool = sorted(flags) if flags and draw(st.integers(0, 7)) else every_flag
        flag = draw(st.sampled_from(pool))
        argv.append(flag)
        if flags.get(flag) is not None and draw(st.integers(0, 9)):  # now and then the value is missing
            argv.append(value(flag))
    return argv


@given(st.data())
@settings(deadline=None, max_examples=120)
def test_fuzzed_command_lines_keep_the_exit_code_contract(fuzz_grammar, data):
    argv = data.draw(_argv(fuzz_grammar), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    else:
        assert err == ""
