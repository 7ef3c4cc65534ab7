"""End-to-end tests for the command line: output, exit codes, determinism."""

from __future__ import annotations

import atexit
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rivershare import analysis, axioms, cli
from rivershare.cli import main, parse_rule
from rivershare.core import (
    ParameterError,
    RiverShareError,
    RuleKind,
    RuleSpec,
    ValidationResult,
    validate_allocation,
)
from rivershare.data_io import builtin_nile, dump_dataset, read_dataset
from rivershare.analysis import Family, family_member


# the children's bytecode cache: outside the checkout, removed at exit
_PYCACHE = tempfile.TemporaryDirectory(prefix="rivershare-pycache-")
atexit.register(_PYCACHE.cleanup)


def run_child(argv, **kwargs):
    """Run `argv` in a fresh interpreter that imports this checkout's package.

    The children share one bytecode cache, also where the caller sets
    PYTHONDONTWRITEBYTECODE, so only the first compiles the package.
    """
    source = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONPYCACHEPREFIX": _PYCACHE.name}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    kwargs.setdefault("capture_output", True)
    return subprocess.run(argv, env=env, **kwargs)


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
        ("compromise:", "compromise weight must be a number"),
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


@pytest.mark.parametrize("weight", ["x", "", "nan", "1.5", "-0.1"])
@pytest.mark.parametrize("kind", [RuleKind.COMPROMISE, RuleKind.PARTIAL_COMPROMISE])
def test_parse_rule_leaves_the_weight_to_rulespec(kind, weight):
    with pytest.raises(ParameterError) as parsed:
        parse_rule(f"{kind.value.title()}:{weight}")
    with pytest.raises(ParameterError) as built:
        RuleSpec(kind, weight=weight)
    assert str(parsed.value) == str(built.value)


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


def test_allocate_with_shares_for_another_river_is_one_error_line(capsys):
    code, out, err = run_cli(capsys, "allocate", "--dataset", "nile", "--rule", "alpha:0.5,0.5")
    assert (code, out) == (1, "")
    assert err == "error: 2 retention shares imply 3 agents, but the profile has 5\n"


def test_dataset_that_is_not_utf8_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"agent,inflow\nA\xe9,1\nB,2\n")
    code, out, err = run_cli(capsys, "allocate", "--dataset", str(path), "--rule", "nt")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xe9")
    assert len(err.splitlines()) == 1


def test_a_dataset_with_a_byte_order_mark_allocates(capsys, tmp_path):
    plain = tmp_path / "basin.csv"
    plain.write_text("agent,inflow\nup,3\ndown,1\n", encoding="utf-8")
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    code, out, err = run_cli(capsys, "allocate", "--dataset", str(marked), "--rule", "shapley")
    assert (code, err) == (0, "")
    assert run_cli(capsys, "allocate", "--dataset", str(plain), "--rule", "shapley") == (0, out, "")


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
    ],
)
def test_tolerance_must_be_finite_and_non_negative(capsys, argv, value):
    code, out, err = run_cli(capsys, *argv, "--tolerance", value)
    assert code == 1
    assert out == ""
    assert err.startswith("error: tolerance must be finite and >= 0") and len(err.splitlines()) == 1


def _rerouted_tolerance(value):
    tol = float(value)
    yield pytest.param(
        ("allocate", "--inflows", "1,2", "--rule", "shapley", "--tolerance", value),
        lambda path: validate_allocation((1, 2), RuleSpec.shapley().apply((1, 2)), tol=tol),
        id=f"allocate-tolerance={value}",
    )
    yield pytest.param(
        ("axioms", "--rule", "shapley", "--trials", "1", "--tolerance", value),
        lambda path: axioms.run_axiom_suite(RuleSpec.shapley(), list(axioms.Axiom), 1, 0, tol=tol),
        id=f"axioms-tolerance={value}",
    )
    yield pytest.param(
        ("fit", "--dataset", "nile", "--family", "compromise", "--tolerance", value),
        lambda path: analysis.legitimacy_bounds(
            builtin_nile().inflows, builtin_nile().normalized_withdrawals(), Family.COMPROMISE, tol=tol
        ),
        id=f"fit-tolerance={value}",
    )


@pytest.mark.parametrize(
    "argv,call",
    [
        *_rerouted_tolerance("-1"),
        *_rerouted_tolerance("nan"),
        pytest.param(
            ("axioms", "--rule", "shapley", "--trials", "0"),
            lambda path: axioms.run_axiom_suite(RuleSpec.shapley(), list(axioms.Axiom), 0, 0),
            id="trials",
        ),
        pytest.param(
            ("axioms", "--rule", "shapley", "--min-agents", "5", "--max-agents", "3"),
            lambda path: axioms.run_axiom_suite(RuleSpec.shapley(), list(axioms.Axiom), 1000, 0, (5, 3)),
            id="agent-range",
        ),
        pytest.param(
            ("fit", "--dataset", "{csv}", "--family", "compromise"),
            lambda path: read_dataset(path).normalized_withdrawals(),
            id="no-withdrawals",
        ),
    ],
)
def test_a_rerouted_input_error_is_the_library_message(capsys, tmp_path, argv, call):
    # the CLI leaves each of these to the library call it makes
    path = tmp_path / "no-withdrawals.csv"
    path.write_text("agent,inflow\nup,1\ndown,2\n", encoding="utf-8")
    with pytest.raises(RiverShareError) as caught:
        call(path)
    argv = [str(path) if arg == "{csv}" else arg for arg in argv]
    assert run_cli(capsys, *argv) == (1, "", f"error: {caught.value}\n")


def test_fit_refuses_a_bad_tolerance_before_the_fit_and_the_quadrature(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("ran before the tolerance was checked")

    monkeypatch.setattr(analysis, "fit_family", fail)
    monkeypatch.setattr(analysis, "integrate_distance", fail)
    argv = ("fit", "--dataset", "nile", "--family", "compromise", "--nodes", "1024", "--tolerance", "-1")
    assert run_cli(capsys, *argv) == (1, "", "error: tolerance must be finite and >= 0, got -1.0\n")


def test_case_study_takes_no_tolerance(capsys):
    # each reference check has its own stated tolerance
    code, out, err = run_cli(capsys, "case-study", "--tolerance", "0.1")
    assert (code, out) == (1, "")
    assert err == "error: unrecognized arguments: --tolerance 0.1\n"


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
        raise AssertionError("an instance was generated")

    monkeypatch.setattr(axioms, "_draw", fail)
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")


def test_axioms_accepts_the_largest_trial_count(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(axioms, "run_axiom_suite", lambda rule, **kwargs: calls.append(kwargs) or [])
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


def test_fit_reports_the_exact_integral_unless_given_nodes(capsys, forbid_node_rule, monkeypatch):
    nile = builtin_nile()
    z = nile.normalized_withdrawals()
    for family in Family:
        code, out, _ = run_cli(capsys, "fit", "--dataset", "nile", "--family", family.value, "--json")
        assert code == 0
        record = json.loads(out)
        assert record["inputs"]["nodes"] is None
        assert record["outputs"]["integral"] == analysis.integrate_distance(nile.inflows, z, family)
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "fit", "--dataset", "nile", "--family", "compromise", "--nodes", "64", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["inputs"]["nodes"] == 64
    quadrature = analysis.integrate_distance(nile.inflows, z, Family.COMPROMISE, nodes=64)
    assert record["outputs"]["integral"] == quadrature


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


NILE_FIT_TEXT = {
    "compromise": """\
family: compromise
parameter: 0.0674
residual distance: 13.3413
distance integral: 46.5797
agent        observed  fitted   lower    upper    status
-----------  --------  -------  -------  -------  -----------
Tanzania     5.4033    1.1322   0.0000   16.8000  legitimate
Uganda       0.6676    5.0087   4.2000   16.2000  below-lower
South Sudan  0.6885    10.1392  9.6000   17.6000  below-lower
Sudan        28.0910   21.5608  18.4000  65.3000  legitimate
Egypt        81.0497   78.0590  0.0000   83.7000  legitimate
""",
    "partial": """\
family: partial
parameter: 0.0000 (clipped from -1.3435)
residual distance: 64.7356
distance integral: 78.3250
agent        observed  fitted   lower    upper    status
-----------  --------  -------  -------  -------  -----------
Tanzania     5.4033    0.0000   0.0000   16.8000  legitimate
Uganda       0.6676    8.2500   8.2500   16.2000  below-lower
South Sudan  0.6885    17.0500  17.0500  17.6000  below-lower
Sudan        28.0910   61.6250  61.6250  65.3000  below-lower
Egypt        81.0497   28.9750  0.0000   28.9750  above-upper
""",
}


@pytest.mark.parametrize("family", ["compromise", "partial"])
def test_fit_nile_text_is_pinned(capsys, family):
    # four decimals, so unlike the JSON floats no last-bit libm difference shows
    assert run_cli(capsys, "fit", "--dataset", "nile", "--family", family) == (0, NILE_FIT_TEXT[family], "")


def test_fit_on_a_degenerate_family_says_so(capsys, tmp_path):
    # with no inflow upstream, full transfer and no transfer coincide
    path = tmp_path / "degenerate.csv"
    path.write_text("agent,inflow,withdrawal\nA,0,1\nB,5,2\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "fit", "--dataset", str(path), "--family", "compromise")
    assert code == 0
    assert "family is degenerate: both endpoints coincide\n" in out


def test_fit_curve_into_a_missing_directory_is_one_error_line(capsys, tmp_path):
    curve = tmp_path / "missing" / "curve.csv"
    code, out, err = run_cli(capsys, "fit", "--dataset", "nile", "--family", "compromise", "--curve", str(curve))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write curve to {curve}: ")
    assert len(err.splitlines()) == 1


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

    monkeypatch.setattr(analysis, "fit_family", fail)
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("family", ["compromise", "partial"])
@pytest.mark.parametrize("magnitude", [1e160, 1e300])
def test_fit_at_large_magnitudes_prints_finite_numbers(capsys, tmp_path, family, magnitude):
    path = tmp_path / "huge.csv"
    m = magnitude
    path.write_text(f"agent,inflow,withdrawal\na,{m!r},{m!r}\nb,{2 * m!r},{m!r}\nc,0,{m!r}\n")
    argv = ("fit", "--dataset", str(path), "--family", family)
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0 and err == ""

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    def numbers(value):
        if isinstance(value, dict):
            return [x for v in value.values() for x in numbers(v)]
        if isinstance(value, list):
            return [x for v in value for x in numbers(v)]
        return [value] if isinstance(value, float) else []

    found = numbers(json.loads(out, parse_constant=refuse))
    assert found and all(math.isfinite(x) for x in found)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert "nan" not in out and "inf" not in out


@pytest.mark.parametrize("family", ["compromise", "partial"])
@pytest.mark.parametrize("magnitude", [1e-300, 1e300])
def test_fit_json_on_tiny_and_huge_basins_is_the_unit_basins_scaled(capsys, tmp_path, family, magnitude):
    def fit(m):
        path = tmp_path / "basin.csv"
        path.write_text(f"agent,inflow,withdrawal\na,{m!r},{2 * m!r}\nb,{2 * m!r},{0.5 * m!r}\nc,0,{m!r}\n")
        code, out, err = run_cli(capsys, "fit", "--dataset", str(path), "--family", family, "--json")
        assert code == 0 and err == ""
        return json.loads(out)["outputs"]

    unit, scaled = fit(1.0), fit(magnitude)
    assert not scaled["fit"]["degenerate"]
    for key in ("parameter", "unconstrained_parameter"):
        assert scaled["fit"][key] == pytest.approx(unit["fit"][key], rel=0.0, abs=1e-14)
    lengths = ((scaled["fit"]["residual"], unit["fit"]["residual"]), (scaled["integral"], unit["integral"]))
    for value, unit_value in lengths:
        assert math.isfinite(value) and value > 0.0
        assert value == pytest.approx(magnitude * unit_value, rel=1e-14, abs=0.0)


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


@pytest.mark.parametrize(
    "name,text,command,message",
    [
        (
            "overflow.csv",
            "agent,inflow,withdrawal\nA,1,1e308\nB,2,1e308\n",
            ("fit", "--family", "compromise"),
            "withdrawal total is too large to represent as a float",
        ),
        (
            "big.json",
            '{"agents": [{"name": "A", "inflow": 1' + "0" * 400 + '}, {"name": "B", "inflow": 2}]}',
            ("allocate", "--rule", "nt"),
            "agents[0]: inflow is too large to represent as a float",
        ),
        (
            "long.json",
            '{"agents": [{"name": "A", "inflow": 1' + "0" * 5000 + '}, {"name": "B", "inflow": 2}]}',
            ("fit", "--family", "partial"),
            "too large to represent as a float",
        ),
        (
            "long.csv",
            "agent,inflow\nA,1\nB,1" + "0" * 140_000 + "\n",
            ("allocate", "--rule", "nt"),
            "line 3: invalid CSV: field larger than field limit (131072)",
        ),
    ],
    ids=["withdrawal-total", "int-over-float-range", "int-over-digit-limit", "csv-field-limit"],
)
def test_out_of_range_numbers_are_one_error_line(capsys, tmp_path, name, text, command, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, *command, "--dataset", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert message in err


def test_overflowing_withdrawals_still_allocate(capsys, tmp_path):
    path = tmp_path / "overflow.csv"
    path.write_text("agent,inflow,withdrawal\nA,1,1e308\nB,2,1e308\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "allocate", "--dataset", str(path), "--rule", "shapley")
    assert code == 0 and err == ""


@pytest.mark.parametrize(
    "value,text",
    [
        (0.0, "0.0000"),
        (81.0, "81.0000"),
        (-0.25, "-0.2500"),
        (999_999_999_999.5, "999999999999.5000"),
        (1e12, "1.0000e+12"),
        (-3.5e15, "-3.5000e+15"),
        (1e300, "1.0000e+300"),
        (math.inf, "inf"),
        (math.nan, "nan"),
    ],
)
def test_table_values_take_an_exponent_form_from_1e12(value, text):
    assert cli._fmt(value) == text


@pytest.mark.parametrize("command", [("fit", "--family", "compromise"), ("allocate", "--rule", "shapley")])
def test_huge_basins_print_short_table_rows(capsys, tmp_path, command):
    path = tmp_path / "huge.csv"
    path.write_text("agent,inflow,withdrawal\na,1e300,1e300\nb,2e300,1e300\nc,0,1e300\n")
    code, out, err = run_cli(capsys, *command, "--dataset", str(path))
    assert code == 0 and err == ""
    assert "e+300" in out
    assert max(map(len, out.splitlines())) < 80


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


CASE_STUDY_TEXT = """\
Nile basin allocation study

agent        observed  eft      compromise:0.5  nt       partial:0.5  ept      shapley
-----------  --------  -------  --------------  -------  -----------  -------  -------
Tanzania     5.4000    0.0000   8.4000          16.8000  8.4000       0.0000   3.3600
Uganda       0.7000    4.2000   10.2000         16.2000  12.2250      8.2500   7.4100
South Sudan  0.7000    9.6000   13.6000         17.6000  17.3250      17.0500  13.2767
Sudan        28.1000   18.4000  41.8500         65.3000  63.4625      61.6250  45.9267
Egypt        81.0000   83.7000  41.8500         0.0000   14.4875      28.9750  45.9267

compromise fit: parameter 0.0679, allocation ('1.1409', '5.0149', '10.1433', '21.5851', '78.0158')
partial fit: parameter 0.0000 (clipped from -1.3421)
distance integrals: compromise 46.5283, partial 78.2717
legitimacy (compromise): Tanzania: legitimate, Uganda: below-lower, South Sudan: below-lower, \
Sudan: legitimate, Egypt: legitimate
legitimacy (partial): Tanzania: legitimate, Uganda: below-lower, South Sudan: below-lower, \
Sudan: below-lower, Egypt: above-upper
observed shares: Tanzania 4.7%, Uganda 0.6%, South Sudan 0.6%, Sudan 24.2%, Egypt 69.9%

all 19 reference checks passed
"""


def test_case_study_text_is_pinned(capsys):
    assert run_cli(capsys, "case-study") == (0, CASE_STUDY_TEXT, "")


ALLOCATE_NILE_TEXT = """\
rule: shapley
agent        inflow    allocation
-----------  --------  ----------
Tanzania     16.8000   3.3600
Uganda       16.2000   7.4100
South Sudan  17.6000   13.2767
Sudan        65.3000   45.9267
Egypt        0.0000    45.9267
total        115.9000  115.9000
"""

# the counterexample lines print the generated floats in full; compromise
# is plain arithmetic, so no libm rounding shows in them
AXIOMS_VIOLATION_TEXT = """\
rule: compromise:0.5  trials: 200  seed: 5
  scale-invariance: pass
  upstream-invariance: pass
  downstream-impartiality: pass
  order-preservation: FAIL (166 violations)
    e: (994986.9330968491, 571514.6495001126)
    allocation: ('497493.4665', '1069008.1160')
    inflows e[0]=994986.9330968491 >= e[1]=571514.6495001126 but assignments \
x[0]=497493.46654842456 < x[1]=1069008.1160485372
  progressivity: FAIL (140 violations)
    e: (0.0, 0.0, 588801.7362936252, 0.0, 0.0, 0.0, 0.0, 0.0)
    position: 2
    allocation: ('0.0000', '0.0000', '294400.8681', '58880.1736', '58880.1736', '58880.1736', \
'58880.1736', '58880.1736')
    source assignment 294400.8681468126 <= downstream mean 58880.17362936252 fails
  regressivity: pass
  balance: FAIL (125 violations)
    e: (410221.0160626786, 0.0, 0.0, 0.0, 0.0)
    position: 0
    allocation: ('205110.5080', '51277.6270', '51277.6270', '51277.6270', '51277.6270')
    source assignment 205110.5080313393 == downstream mean 51277.627007834824 fails
  equal-source-inflows: pass
  equal-upstream-total-inflow: FAIL (111 violations)
    e: (86943.56801147951, 419190.89586700784, 620574.5349062167, 989623.8244356813, \
999881.173419132, 474170.42677775834)
    other: (159450.04754553232, 346684.41633295506, 620574.5349062167, 323378.15856935736, \
916185.4335293402, 306603.94785311865)
    position: 2
    on e: ('43471.7840', '218289.8047', '371380.4862', '659334.2202', '911868.8508', '1386039.2775')
    on other: ('79725.0238', '189287.2129', '369567.8242', '324398.7252', '701646.9024', '1008250.8502')
    agent 2 has equal own inflow and upstream total yet gets 371380.4862376323 vs 369567.82424928097
"""


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("allocate", "--dataset", "nile", "--rule", "shapley"), (0, ALLOCATE_NILE_TEXT, "")),
        (
            ("axioms", "--rule", "compromise:0.5", "--trials", "200", "--seed", "5"),
            (2, AXIOMS_VIOLATION_TEXT, ""),
        ),
    ],
    ids=["allocate", "axioms"],
)
def test_allocate_and_axioms_text_is_pinned(capsys, argv, expected):
    assert run_cli(capsys, *argv) == expected


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


# (exit code, SHA-256 of stdout) of `--json` runs.  The floats are printed
# in full, so a libm that rounds a last bit differently, or a new
# `__version__`, changes a digest; a refactor must not.
JSON_DIGESTS = {
    ("case-study", "--json"): (
        0, "a8ab7b811b7b5c189c03bb49fe7704395a9254f63f18e99af2315cfd4b0ab084"
    ),
    ("case-study", "--full-precision", "--json"): (
        2, "f44f283e2c8f0aa852f4bac6ca194652a5f9f94b11aba079f68c09263149a5c8"
    ),
    ("fit", "--dataset", "nile", "--family", "compromise", "--json"): (
        0, "cb9844829144120de9f3afbcc9cd2676262e4c6a27c603a1867953de808a712a"
    ),
    ("fit", "--dataset", "nile", "--family", "partial", "--json"): (
        0, "ed367325468008658672c71e708a58645c6e89d75ef21a6c47c60e1a8f5b21d4"
    ),
    ("allocate", "--dataset", "nile", "--rule", "shapley", "--json"): (
        0, "67ccf47ea0ea24595790523a76ed24dcb09aacd39f14a92a938c975454e19ad5"
    ),
    ("axioms", "--rule", "compromise:0.5", "--trials", "200", "--seed", "5", "--json"): (
        2, "15d1c1016618a15e76abf6f03302d15c055aee377760ae4c458ccea0da41228e"
    ),
}


@pytest.mark.parametrize("argv", list(JSON_DIGESTS), ids=" ".join)
def test_json_records_are_pinned(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (*JSON_DIGESTS[argv], "")


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv",
    [
        ("axioms", "--rule", "shapley", "--trials", "200"),
        ("allocate", "--inflows", "1,2", "--rule", "nt", "--json"),
        ("--help",),
        ("--version",),
        ("allocate", "--help"),
    ],
)
def test_closed_stdout_is_one_error_line(monkeypatch, argv, unbuffered):
    # buffered, the failure surfaces at the final flush; unbuffered, at the
    # first print, which for --help and --version is argparse's own write
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails with EPIPE
    try:
        done = run_child(
            [sys.executable, "-m", "rivershare.cli", *argv],
            capture_output=False, stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines() == ["error: standard output was closed"]


# registered before the CLI runs, so it runs after the CLI's own exit path
_FREEZE_HOOK = """
import atexit, gc, sys
atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))
"""


@pytest.mark.parametrize("entry", ["-m", "script"])
def test_a_cli_process_freezes_the_collector_before_it_exits(capsys, monkeypatch, tmp_path, entry):
    if entry == "-m":
        (tmp_path / "sitecustomize.py").write_text(_FREEZE_HOOK, encoding="utf-8")
        monkeypatch.setenv("PYTHONPATH", str(tmp_path))
        argv = [sys.executable, "-m", "rivershare.cli", "case-study"]
    else:
        # the way pip's generated `rivershare` wrapper calls its entry point
        wrapper = _FREEZE_HOOK + "from rivershare.cli import script\nsys.exit(script())\n"
        argv = [sys.executable, "-c", wrapper, "case-study"]
    done = run_child(argv, text=True)
    assert main(["case-study"]) == 0
    assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "True\n")


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("allocate", "--inflows", "50,30,10,10", "--rule", "shapley"), 0),
        (("axioms", "--rule", "compromise:0.5", "--axioms", "progressivity", "--trials", "25"), 2),
        (("allocate", "--inflows", "1,-2", "--rule", "nt"), 1),
    ],
    ids=["passes", "fails", "error"],
)
def test_main_leaves_the_collector_alone(capsys, argv, expected):
    frozen = gc.get_freeze_count()
    assert main(list(argv)) == expected
    assert gc.get_freeze_count() == frozen


_IMPORT_CONTRACT_SCRIPT = """
import copy
import pickle
import runpy
import sys
import types

sys.modules["numpy"] = None  # any import of numpy now raises ImportError
curve = sys.argv[1]  # read before `run` and `call` overwrite sys.argv

import rivershare

modules = ["rivershare.core", "rivershare.axioms", "rivershare.analysis", "rivershare.data_io"]
kinds = {name: type(sys.modules.get(name)) for name in modules}
assert all(kind is types.ModuleType for kind in kinds.values()), f"import rivershare loaded {kinds}"
unlisted = sorted(set(rivershare.__all__) - set(dir(rivershare)))
assert not unlisted, unlisted
assert rivershare.data_io.builtin_nile is rivershare.builtin_nile


def run(*argv):
    # what `python -m rivershare.cli ...` runs, in this interpreter
    sys.argv = ["rivershare", *argv]
    try:
        runpy.run_module("rivershare.cli", run_name="__main__")
    except SystemExit as exc:
        return exc.code


def heavy():
    return [name for name in ("dataclasses", "inspect", "typing", "pathlib") if name in sys.modules]


# what the `rivershare` script runs
from rivershare.cli import script


def call(*argv):
    sys.argv = ["rivershare", *argv]
    try:
        script()
    except SystemExit as exc:
        return exc.code


codes = [
    call("allocate", "--inflows", "50,30,10,10", "--rule", "shapley", "--json"),
    call("allocate", "--inflows", "1,-2", "--rule", "nt"),
]
assert codes == [0, 1], codes
assert not heavy(), f"the script's allocate loaded {heavy()}"

codes = [
    run("allocate", "--inflows", "50,30,10,10", "--rule", "shapley", "--json"),
    run("allocate", "--dataset", "nile", "--rule", "compromise:0.5", "--json"),
    run("allocate", "--inflows", "1,-2", "--rule", "nt"),
    run("frobnicate", "--json"),
]
assert codes == [0, 0, 1, 1], codes
assert not heavy(), f"allocate loaded {heavy()}"

codes = [
    run("axioms", "--rule", "shapley", "--axioms", "balance", "--trials", "20"),
    run("axioms", "--rule", "shapley", "--axioms", "balance", "--trials", "20", "--json"),
]
assert codes == [0, 0], codes
assert not heavy(), f"axioms loaded {heavy()}"

codes = [
    run("fit", "--dataset", "nile", "--family", "compromise", "--json"),
    run("fit", "--dataset", "nile", "--family", "compromise", "--curve", curve),
    run("fit", "--dataset", "nile", "--family", "partial", "--nodes", "1024"),
    run("fit", "--dataset", "nile", "--family", "compromise", "--nodes", "0"),
    run("fit", "--dataset", "nile", "--family", "compromise", "--curve", curve, "--curve-points", "1000000000"),
    run("case-study", "--json"),
]
assert codes == [0, 0, 0, 1, 1, 0], codes
assert not heavy(), f"fit and case-study loaded {heavy()}"

from rivershare import *

missing = [name for name in rivershare.__all__ if name not in globals()]
assert not missing, missing
nile = builtin_nile()
z = nile.normalized_withdrawals()
e = nile.inflows
for family in Family:
    fit = fit_family(e, z, family)
    distance_at(e, z, family, fit.parameter_star)
    for nodes in (1, 64, 1024):
        integrate_distance(e, z, family, nodes=nodes)
    report = legitimacy_bounds(e, z, family, names=nile.names)
    pickle.loads(pickle.dumps(copy.deepcopy(report))).to_dict()
    family_member(e, family, 0.5)
assert nile_case_study().all_ok
nile_case_study(reporting_decimals=None, nodes=512).to_dict()
shares_of_total(e)
rule = RuleSpec.shapley()
assert validate_allocation(e, rule.apply(e))
run_axiom_suite(rule, list(Axiom), 20, seed=1)
find_counterexample(RuleSpec.egalitarian_full_transfer(), Axiom.ORDER_PRESERVATION)
load_dataset(dump_dataset(nile, "json"), "json")
assert not heavy(), f"public calls loaded {heavy()}"
print("ok")
"""


def test_import_loads_every_module_and_commands_load_nothing_heavy(tmp_path):
    # -S: a site .pth file may import `typing` and `pathlib` at start-up
    argv = [sys.executable, "-S", "-c", _IMPORT_CONTRACT_SCRIPT, str(tmp_path / "curve.csv")]
    done = run_child(argv, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("ok\n")
    assert len((tmp_path / "curve.csv").read_text().splitlines()) == 102


_LOADED_SCRIPT = """
import contextlib
import io
import sys

from rivershare.cli import main

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m for m in ("json", "_json", "csv", "_csv") if m in sys.modules))
"""


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("allocate", "--inflows", "50,30,10,10", "--rule", "shapley"), ("0",)),
        (("allocate", "--dataset", "nile", "--rule", "compromise:0.5"), ("0",)),
        (("allocate", "--inflows", "1,-2", "--rule", "nt"), ("1",)),
        (("axioms", "--rule", "compromise:0.5", "--axioms", "balance", "--trials", "20"), ("2",)),
        (("fit", "--dataset", "nile", "--family", "compromise", "--curve", "{tmp}/curve.csv"), ("0",)),
        (("case-study",), ("0",)),
        (("allocate", "--inflows", "50,30,10,10", "--rule", "shapley", "--json"), ("0", "_json", "json")),
        (("case-study", "--json"), ("0", "_json", "json")),
        (("allocate", "--dataset", "{tmp}/nile.json", "--rule", "nt"), ("0", "_json", "json")),
        (("allocate", "--dataset", "{tmp}/nile.csv", "--rule", "nt"), ("0", "_csv", "csv")),
        (("fit", "--dataset", "{tmp}/nile.csv", "--family", "partial"), ("0", "_csv", "csv")),
    ],
    ids=" ".join,
)
def test_a_command_loads_json_and_csv_only_when_it_uses_them(tmp_path, argv, expected):
    for fmt in ("csv", "json"):
        (tmp_path / f"nile.{fmt}").write_text(dump_dataset(builtin_nile(), fmt), encoding="utf-8")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    # -S: a site .pth file may import `json` at start-up
    done = run_child([sys.executable, "-S", "-c", _LOADED_SCRIPT, *argv], text=True)
    assert (done.stdout, done.stderr) == (" ".join(expected) + "\n", "")


def test_package_names_are_bound_from_their_modules():
    import rivershare

    assert rivershare.RuleSpec is RuleSpec
    assert rivershare.Family is Family
    assert rivershare.run_axiom_suite is axioms.run_axiom_suite
    assert "RuleSpec" in dir(rivershare) and "__version__" in rivershare.__all__
    with pytest.raises(AttributeError, match="has no attribute 'cli_main'"):
        rivershare.cli_main
    from rivershare import axioms as submodule, core

    assert submodule is axioms and core.RuleSpec is RuleSpec


_TRACED_CLI_SCRIPT = """
import contextlib
import importlib.util
import io
import sys

# the benchmark's span recorder, loaded by path: it uses only the stdlib
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)

from rivershare import cli


def bindings():
    # every name bound in a module of the package, and every class attribute
    # the recorder may patch
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "rivershare" or name.startswith("rivershare."):
            for key, value in vars(module).items():
                out[name, key] = value
                if isinstance(value, type):
                    out.update(((name, key, k), v) for k, v in vars(value).items())
    return out


before = bindings()
recorder = spans.SpanRecorder()
recorder.install()
assert cli.main is not before["rivershare.cli", "main"]
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["allocate", "--inflows", "50,30,10,10", "--rule", "shapley", "--json"])
recorder.uninstall()
assert code == 0, code
assert '"allocation"' in out.getvalue()
summary = recorder.summary()
assert summary["cli.main"]["calls"] == 1, summary
assert summary["RuleSpec.apply"]["calls"] >= 1, summary
after = bindings()
changed = [key for key, value in before.items() if after.get(key) is not value]
assert not changed and after.keys() == before.keys(), changed
print("ok")
"""


def test_benchmark_span_recorder_traces_the_cli():
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    done = run_child([sys.executable, "-c", _TRACED_CLI_SCRIPT, str(spans)], text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("ok\n")


_BENCHMARK_CHECKS_SCRIPT = """
import importlib.util
import pathlib
import sys

# the benchmark's workloads, loaded by path; they import their siblings by name
perfbench = pathlib.Path(sys.argv[1])
sys.path.insert(0, str(perfbench))
spec = importlib.util.spec_from_file_location("workloads", perfbench / "workloads.py")
workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)  # for its dataclasses
spec.loader.exec_module(workloads)

for name in ("axiom-suite", "allocate-sweep", "fit-basins"):
    entries = workloads.WORKLOADS[name].setup(0, pathlib.Path(sys.argv[2]))
    for entry in entries[:40]:
        problem = entry.check(entry.run())
        assert problem is None, (name, entry.label, problem)
print("ok")
"""


def test_benchmark_output_checks_pass_on_this_checkout(tmp_path):
    # the benchmark's in-process workloads check each output against what
    # the package still provides, such as `axioms.oracle_transfer_simulation`
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    done = run_child([sys.executable, "-c", _BENCHMARK_CHECKS_SCRIPT, str(perfbench), str(tmp_path)], text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


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
