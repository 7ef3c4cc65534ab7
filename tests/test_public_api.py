"""Every public callable, called with one hostile argument at a time.

The targets are enumerated: each function in `rivershare.__all__`, each
checked value type there and each `axioms.check_*` predicate.  A new public
callable fails the test until its valid call is added to `_valid_calls`.
Only a `RiverShareError`, or `HypothesisNotMet` from a predicate, may
escape.
"""

from __future__ import annotations

import enum
import inspect
from array import array

import rivershare
from rivershare import axioms
from rivershare.analysis import Family
from rivershare.axioms import Axiom, HypothesisNotMet
from rivershare.core import RiverShareError, RuleKind, RuleSpec

# plain result records: built by the package, never from a caller's input
_RECORDS = {
    "AxiomReport", "CaseStudyResult", "Counterexample", "FitResult",
    "LegitimacyEntry", "LegitimacyReport", "ReferenceCheck", "ValidationResult",
}


class _ListRule:
    """A duck-typed rule whose `apply` returns a list, not an Allocation."""

    fixed_agent_count = None

    def label(self) -> str:
        return "list"

    def apply(self, e):
        return list(e.inflows)


_E = (1.0, 2.0, 2.0)
_Z = (2.0, 1.0, 2.0)
_RULE = RuleSpec.shapley()
_NILE = rivershare.builtin_nile()


def _valid_calls(tmp_path):
    """One valid call per target: the callable and its positional arguments."""
    path = tmp_path / "basin.json"
    path.write_text(rivershare.dump_dataset(_NILE, "json"), encoding="utf-8")
    family = Family.COMPROMISE
    return {
        "Allocation": (rivershare.Allocation, (_E,)),
        "BasinDataset": (rivershare.BasinDataset, (("a", "b", "c"), _E, _Z)),
        "InflowProfile": (rivershare.InflowProfile, (_E,)),
        "ObservedAllocation": (rivershare.ObservedAllocation, (_Z,)),
        "RetentionShares": (rivershare.RetentionShares, ((0.5, 0.25),)),
        "RuleSpec": (RuleSpec, (RuleKind.RETENTION, None, (0.5, 0.25))),
        "as_observed": (rivershare.as_observed, (_Z,)),
        "as_profile": (rivershare.as_profile, (_E,)),
        "as_retention": (rivershare.as_retention, ((0.5, 0.25),)),
        "builtin_nile": (rivershare.builtin_nile, ()),
        "compromise": (rivershare.compromise, (_E, 0.5)),
        "distance_at": (rivershare.distance_at, (_E, _Z, family, 0.5)),
        "dump_dataset": (rivershare.dump_dataset, (_NILE, "csv")),
        "egalitarian_full_transfer": (rivershare.egalitarian_full_transfer, (_E,)),
        "egalitarian_partial_transfer": (rivershare.egalitarian_partial_transfer, (_E,)),
        "family_member": (rivershare.family_member, (_E, family, 0.5)),
        "find_counterexample": (rivershare.find_counterexample, (_RULE, Axiom.BALANCE, (2, 3), 0, 3, None)),
        "fit_family": (rivershare.fit_family, (_E, _Z, family)),
        "integrate_distance": (rivershare.integrate_distance, (_E, _Z, family, 8)),
        "legitimacy_bounds": (rivershare.legitimacy_bounds, (_E, _Z, family, ("a", "b", "c"), None)),
        "load_dataset": (rivershare.load_dataset, (rivershare.dump_dataset(_NILE, "csv"), "csv")),
        "nile_case_study": (rivershare.nile_case_study, (1, 8)),
        "no_transfer": (rivershare.no_transfer, (_E,)),
        "normalize_withdrawals": (rivershare.normalize_withdrawals, (_E, _Z)),
        "partial_compromise": (rivershare.partial_compromise, (_E, 0.5)),
        "read_dataset": (rivershare.read_dataset, (str(path),)),
        "retention_rule": (rivershare.retention_rule, (_E, (0.5, 0.25))),
        "run_axiom_suite": (rivershare.run_axiom_suite, (_RULE, [Axiom.BALANCE], 3, 0, (2, 3), None)),
        "shapley": (rivershare.shapley, (_E,)),
        "shares_of_total": (rivershare.shares_of_total, (_Z,)),
        "source": (rivershare.source, (_E,)),
        "tolerance_for": (rivershare.tolerance_for, (1.0,)),
        "validate_allocation": (rivershare.validate_allocation, (_E, _E, None)),
        "check_scale_invariance": (axioms.check_scale_invariance, (_RULE, _E, 2.0, None)),
        "check_upstream_invariance": (axioms.check_upstream_invariance, (_RULE, _E, 1, 1.0, None)),
        "check_downstream_impartiality": (
            axioms.check_downstream_impartiality, (_RULE, _E, 0, 1.0, None, False)
        ),
        "check_order_preservation": (axioms.check_order_preservation, (_RULE, _E, None)),
        "check_source_shape": (axioms.check_source_shape, (_RULE, 0, Axiom.BALANCE, 3, None)),
        "check_equal_treatment_source": (axioms.check_equal_treatment_source, (_RULE, _E, (0.0, 1.0, 5.0), None)),
        "check_equal_treatment_upstream_total": (
            axioms.check_equal_treatment_upstream_total, (_RULE, _E, _Z, 2, None)
        ),
    }


def _targets() -> set[str]:
    """The public callables a caller can hand arguments to."""
    names = {name for name in dir(axioms) if name.startswith("check_")}
    for name in rivershare.__all__:
        value = getattr(rivershare, name)
        if isinstance(value, type):
            if issubclass(value, (BaseException, enum.Enum)) or name in _RECORDS:
                continue
        elif not callable(value):
            continue
        names.add(name)
    return names


def _pool():
    """The hostile values, built afresh for each argument: a generator is spent."""
    return [
        None, True, 10**400, -(10**400), float("nan"), float("inf"), -1, 1.5, "x",
        b"12", memoryview(b"12"), array("b", [1, 2]), (v for v in (1.0, 2.0)),
        {1.0, 2.0}, {"a": 1.0}, (), [], object(), _ListRule(),
    ]


_COUNTS = {"trials", "random_trials"}  # an int there is a valid, maybe long, run


def test_a_hostile_argument_is_one_package_error(tmp_path):
    calls = _valid_calls(tmp_path)
    assert set(calls) == _targets(), "each public callable needs a valid call here"
    escaped = []
    for name, (target, args) in sorted(calls.items()):
        target(*args)
        parameters = list(inspect.signature(target).parameters)
        for k in range(len(args)):
            for value in _pool():
                if parameters[k] in _COUNTS and isinstance(value, int):
                    continue
                try:
                    target(*args[:k], value, *args[k + 1:])
                except RiverShareError:
                    pass
                except HypothesisNotMet:
                    if not name.startswith("check_"):
                        escaped.append((name, parameters[k], value, "HypothesisNotMet"))
                except Exception as exc:  # noqa: BLE001 - an escape is what the test looks for
                    escaped.append((name, parameters[k], value, f"{type(exc).__name__}: {exc}"))
    assert not escaped, "\n".join(map(repr, escaped))
