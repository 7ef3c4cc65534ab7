"""The value contract of the package's immutable record types.

Each record compares equal to an equal record of its own type and to
nothing else, hashes like its equals, prints as `Type(field=value, ...)`,
refuses assignment and deletion, and survives pickle and copy unchanged.
Its fields can be given in order or by name, trailing ones with defaults
can be left out, and any other call raises TypeError.  `to_dict` gives its
JSON data, as `--json` prints it.
"""

from __future__ import annotations

import copy
import json
import pickle

import pytest

from rivershare.analysis import (
    CaseStudyResult,
    Family,
    FitResult,
    Legitimacy,
    LegitimacyEntry,
    LegitimacyReport,
    ReferenceCheck,
)
from rivershare.axioms import Axiom, AxiomReport, Counterexample
from rivershare.core import (
    Allocation,
    InflowProfile,
    ObservedAllocation,
    RetentionShares,
    RuleKind,
    RuleSpec,
    ValidationResult,
    parse_rule,
)
from rivershare.data_io import BasinDataset


def _counterexample(violation="agent 0 gains 0.5"):
    return Counterexample(
        Axiom.BALANCE,
        "shapley",
        (("e", (1.0, 2.0)), ("position", 0)),
        (("on e", (1.5, 1.5)),),
        violation,
    )


_COUNTEREXAMPLE_REPR = (
    "Counterexample(axiom=<Axiom.BALANCE: 'balance'>, rule='shapley', "
    "inputs=(('e', (1.0, 2.0)), ('position', 0)), allocations=(('on e', (1.5, 1.5)),), "
    "violation='agent 0 gains 0.5')"
)

def _fit(parameter=0.25):
    return FitResult(Family.COMPROMISE, parameter, Allocation((1.0, 2.0)), 0.5, False, parameter)


_FIT_REPR = (
    "FitResult(family=<Family.COMPROMISE: 'compromise'>, parameter_star=0.25, "
    "fitted_allocation=Allocation(amounts=(1.0, 2.0)), residual_distance=0.5, clipped=False, "
    "unconstrained_parameter=0.25, degenerate=False)"
)


def _entry(observed=2.0):
    return LegitimacyEntry("A", 0, 0.5, 1.5, observed, Legitimacy.ABOVE_UPPER)


_ENTRY_REPR = (
    "LegitimacyEntry(agent='A', position=0, lower=0.5, upper=1.5, observed=2.0, "
    "classification=<Legitimacy.ABOVE_UPPER: 'above-upper'>)"
)


def _report(observed=2.0):
    return LegitimacyReport(Family.PARTIAL_COMPROMISE, (_entry(observed),))


_REPORT_REPR = (
    f"LegitimacyReport(family=<Family.PARTIAL_COMPROMISE: 'partial'>, entries=({_ENTRY_REPR},))"
)


def _check(ok=True):
    return ReferenceCheck("share:inflow:A", 0.5, 0.5, 0.01, ok)


_CHECK_REPR = "ReferenceCheck(name='share:inflow:A', expected=0.5, actual=0.5, tolerance=0.01, ok=True)"


def _case_study(integral=3.0):
    one = (1.0,)
    return CaseStudyResult(
        ("A",), one, one, one, one, 1, (("observed", one),), _fit(), _fit(),
        integral, 4.0, integral, 4.0, _report(), _report(), one, one, (_check(),),
    )


_CASE_STUDY_REPR = (
    "CaseStudyResult(names=('A',), inflows=(1.0,), withdrawals=(1.0,), observed=(1.0,), "
    "observed_exact=(1.0,), reporting_decimals=1, table=(('observed', (1.0,)),), "
    f"compromise_fit={_FIT_REPR}, partial_fit={_FIT_REPR}, compromise_integral=3.0, "
    "partial_integral=4.0, compromise_integral_fine=3.0, partial_integral_fine=4.0, "
    f"compromise_legitimacy={_REPORT_REPR}, partial_legitimacy={_REPORT_REPR}, "
    f"inflow_shares=(1.0,), observed_shares=(1.0,), checks=({_CHECK_REPR},))"
)

# (make, make a different value of the same type, field names, repr of make())
RECORDS = {
    "InflowProfile": (
        lambda: InflowProfile((1.0, 2.5, 0.0)),
        lambda: InflowProfile((1.0, 2.5, 0.5)),
        ("inflows",),
        "InflowProfile(inflows=(1.0, 2.5, 0.0))",
    ),
    "Allocation": (
        lambda: Allocation((1, 2.5)),
        lambda: Allocation((2.5, 1)),
        ("amounts",),
        "Allocation(amounts=(1.0, 2.5))",
    ),
    "ObservedAllocation": (
        lambda: ObservedAllocation((0.5, 1.5)),
        lambda: ObservedAllocation((0.5, 1.25)),
        ("amounts",),
        "ObservedAllocation(amounts=(0.5, 1.5))",
    ),
    "RetentionShares": (
        lambda: RetentionShares((0.25, 1)),
        lambda: RetentionShares((0.25,)),
        ("shares",),
        "RetentionShares(shares=(0.25, 1.0))",
    ),
    "ValidationResult": (
        lambda: ValidationResult(False, "forced"),
        lambda: ValidationResult(True),
        ("ok", "reason"),
        "ValidationResult(ok=False, reason='forced')",
    ),
    "RuleSpec": (
        lambda: RuleSpec.retention_rule([0.5, 1]),
        lambda: RuleSpec.compromise(0.5),
        ("kind", "weight", "retention"),
        "RuleSpec(kind=<RuleKind.RETENTION: 'alpha'>, weight=None, "
        "retention=RetentionShares(shares=(0.5, 1.0)))",
    ),
    "BasinDataset": (
        lambda: BasinDataset(("A", "B"), InflowProfile((3.0, 1.0)), (1, 2)),
        lambda: BasinDataset(("A", "B"), InflowProfile((3.0, 1.0))),
        ("names", "inflows", "withdrawals"),
        "BasinDataset(names=('A', 'B'), inflows=InflowProfile(inflows=(3.0, 1.0)), "
        "withdrawals=(1.0, 2.0))",
    ),
    "Counterexample": (
        _counterexample,
        lambda: _counterexample("agent 1 gains 0.5"),
        ("axiom", "rule", "inputs", "allocations", "violation"),
        _COUNTEREXAMPLE_REPR,
    ),
    "AxiomReport": (
        lambda: AxiomReport(Axiom.BALANCE, "shapley", 10, 1, 7, _counterexample()),
        lambda: AxiomReport(Axiom.BALANCE, "shapley", 10, 0, 7),
        ("axiom", "rule", "trials", "violations", "rng_seed", "first_counterexample"),
        "AxiomReport(axiom=<Axiom.BALANCE: 'balance'>, rule='shapley', trials=10, "
        f"violations=1, rng_seed=7, first_counterexample={_COUNTEREXAMPLE_REPR})",
    ),
    "FitResult": (
        _fit,
        lambda: _fit(0.5),
        (
            "family", "parameter_star", "fitted_allocation", "residual_distance",
            "clipped", "unconstrained_parameter", "degenerate",
        ),
        _FIT_REPR,
    ),
    "LegitimacyEntry": (
        _entry,
        lambda: _entry(1.0),
        ("agent", "position", "lower", "upper", "observed", "classification"),
        _ENTRY_REPR,
    ),
    "LegitimacyReport": (
        _report,
        lambda: _report(1.0),
        ("family", "entries"),
        _REPORT_REPR,
    ),
    "ReferenceCheck": (
        _check,
        lambda: _check(False),
        ("name", "expected", "actual", "tolerance", "ok"),
        _CHECK_REPR,
    ),
    "CaseStudyResult": (
        _case_study,
        lambda: _case_study(3.5),
        (
            "names", "inflows", "withdrawals", "observed", "observed_exact",
            "reporting_decimals", "table", "compromise_fit", "partial_fit",
            "compromise_integral", "partial_integral", "compromise_integral_fine",
            "partial_integral_fine", "compromise_legitimacy", "partial_legitimacy",
            "inflow_shares", "observed_shares", "checks",
        ),
        _CASE_STUDY_REPR,
    ),
}

record_types = pytest.mark.parametrize("name", list(RECORDS))


@record_types
def test_equal_records_are_equal_and_hash_alike(name):
    make, different, _, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != different() and not a == different()
    assert len({a, b, different()}) == 2


@record_types
def test_records_differ_from_other_types_and_tuples(name):
    make, _, fields, _ = RECORDS[name]
    record = make()
    assert record != tuple(getattr(record, field) for field in fields)
    assert record != getattr(record, fields[0])
    for other_name, (other_make, _, _, _) in RECORDS.items():
        if other_name != name:
            assert record != other_make()
    assert Allocation((1.0, 2.0)) != ObservedAllocation((1.0, 2.0))
    assert InflowProfile((1.0, 2.0)) != Allocation((1.0, 2.0))


@record_types
def test_repr_lists_the_fields(name):
    make, _, _, text = RECORDS[name]
    assert repr(make()) == text


@record_types
def test_fields_cannot_be_assigned_or_deleted(name):
    make, _, fields, _ = RECORDS[name]
    record = make()
    before = repr(record)
    for field in fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(record, field)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        record.extra = 1
    assert repr(record) == before


@record_types
def test_pickle_and_copy_round_trip(name):
    make, _, fields, _ = RECORDS[name]
    record = make()
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [
        pickle.loads(pickle.dumps(record, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for twin in copies:
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record)
        assert repr(twin) == repr(record)
        for field in fields:
            assert getattr(twin, field) == getattr(record, field)


def test_copies_keep_the_vector_behaviour():
    e = InflowProfile((16.8, 16.2, 17.6, 65.3, 0.0))
    x = Allocation((1.0, 2.5))
    for e2, x2 in [
        (copy.copy(e), copy.copy(x)),
        (copy.deepcopy(e), copy.deepcopy(x)),
        (pickle.loads(pickle.dumps(e)), pickle.loads(pickle.dumps(x))),
    ]:
        assert e2.total == e.total == 115.9
        assert len(e2) == 5 and e2[3] == 65.3 and list(e2) == list(e)
        assert e2.scaled(2.0) == e.scaled(2.0)
        assert x2.total == 3.5 and tuple(x2) == (1.0, 2.5)


@pytest.mark.parametrize("label", ["shapley", "compromise:0.3", "partial:0.7", "alpha:0.5,0.25"])
def test_a_rule_spec_keeps_its_share_vector_out_of_its_value(label):
    # the vector kept for the last size served is a cache, not a field
    fresh, applied = parse_rule(label), parse_rule(label)
    n = applied.fixed_agent_count or 1000
    e = InflowProfile([1.0] * n)
    expected = parse_rule(label).apply(e)
    assert applied.apply(e) == expected
    assert applied == fresh and hash(applied) == hash(fresh)
    assert repr(applied) == repr(fresh) and applied.label() == fresh.label()
    assert applied.to_dict() == fresh.to_dict()
    assert list(applied.__getstate__()) == ["kind", "weight", "retention"]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert len(pickle.dumps(applied, protocol)) <= len(pickle.dumps(fresh, protocol))
    # copies and loads start their own memo
    for twin in (copy.copy(applied), copy.deepcopy(applied), pickle.loads(pickle.dumps(applied))):
        assert twin == fresh and twin.apply(e) == expected
    # a state as the three fields alone, as an older version pickled it
    loaded = RuleSpec.__new__(RuleSpec)
    loaded.__setstate__({"kind": fresh.kind, "weight": fresh.weight, "retention": fresh.retention})
    assert loaded == fresh and loaded.apply(e) == expected and loaded.shares(n) == fresh.shares(n)


_FIT_DATA = {
    "family": "compromise", "parameter": 0.25, "allocation": [1.0, 2.0], "residual": 0.5,
    "clipped": False, "unconstrained_parameter": 0.25, "degenerate": False,
}
_COUNTEREXAMPLE_DATA = {
    "axiom": "balance", "rule": "shapley", "inputs": {"e": (1.0, 2.0), "position": 0},
    "allocations": {"on e": [1.5, 1.5]}, "violation": "agent 0 gains 0.5",
}
_ENTRY_DATA = {
    "agent": "A", "position": 0, "lower": 0.5, "upper": 1.5, "observed": 2.0,
    "classification": "above-upper",
}
_REPORT_DATA = {"family": "partial", "entries": [_ENTRY_DATA]}
_CHECK_DATA = {"name": "share:inflow:A", "expected": 0.5, "actual": 0.5, "tolerance": 0.01, "ok": True}

# the `to_dict()` of each record's make(): a float vector or a tuple is a
# list, a record its `to_dict()`, an enum member its value
TO_DICT = {
    "InflowProfile": {"inflows": [1.0, 2.5, 0.0]},
    "Allocation": {"amounts": [1.0, 2.5]},
    "ObservedAllocation": {"amounts": [0.5, 1.5]},
    "RetentionShares": {"shares": [0.25, 1.0]},
    "ValidationResult": {"ok": False, "reason": "forced"},
    "RuleSpec": {"kind": "alpha", "weight": None, "retention": [0.5, 1.0]},
    "BasinDataset": {"names": ["A", "B"], "inflows": [3.0, 1.0], "withdrawals": [1.0, 2.0]},
    "Counterexample": _COUNTEREXAMPLE_DATA,
    "AxiomReport": {
        "axiom": "balance", "rule": "shapley", "trials": 10, "violations": 1, "rng_seed": 7,
        "passed": False, "first_counterexample": _COUNTEREXAMPLE_DATA,
    },
    "FitResult": _FIT_DATA,
    "LegitimacyEntry": _ENTRY_DATA,
    "LegitimacyReport": _REPORT_DATA,
    "ReferenceCheck": _CHECK_DATA,
    "CaseStudyResult": {
        "names": ["A"], "inflows": [1.0], "withdrawals": [1.0], "observed": [1.0],
        "observed_exact": [1.0], "reporting_decimals": 1, "table": {"observed": [1.0]},
        "fits": {"compromise": _FIT_DATA, "partial": _FIT_DATA},
        "integrals": {"compromise": 3.0, "partial": 4.0, "compromise_fine": 3.0, "partial_fine": 4.0},
        "legitimacy": {"compromise": _REPORT_DATA, "partial": _REPORT_DATA},
        "inflow_shares": [1.0], "observed_shares": [1.0], "checks": [_CHECK_DATA], "all_ok": True,
    },
}


@record_types
def test_to_dict_is_the_json_data(name):
    data = RECORDS[name][0]().to_dict()
    assert data == TO_DICT[name]
    json.dumps(data)


def _fields_of(name):
    """The record type, its field names and one record's field values."""
    make, _, fields, _ = RECORDS[name]
    record = make()
    return type(record), fields, [getattr(record, field) for field in fields]


@record_types
def test_keyword_construction_equals_positional(name):
    cls, fields, values = _fields_of(name)
    positional = cls(*values)
    assert positional == RECORDS[name][0]()
    named = dict(zip(fields, values))
    assert cls(**named) == positional
    assert cls(**dict(reversed(named.items()))) == positional
    first = named.pop(fields[0])
    assert cls(first, **named) == positional


# one record built from its required fields alone, and the defaults that
# fill the trailing fields it leaves out; every other type has no defaults
DEFAULTS = {
    "ValidationResult": (lambda: ValidationResult(True), {"reason": None}),
    "RuleSpec": (lambda: RuleSpec(RuleKind.SHAPLEY), {"weight": None, "retention": None}),
    "BasinDataset": (
        lambda: BasinDataset(("A", "B"), InflowProfile((3.0, 1.0))),
        {"withdrawals": None},
    ),
    "AxiomReport": (
        lambda: AxiomReport(Axiom.BALANCE, "shapley", 10, 0, 7), {"first_counterexample": None}
    ),
    "FitResult": (
        lambda: FitResult(Family.COMPROMISE, 0.25, Allocation((1.0, 2.0)), 0.5, False, 0.25),
        {"degenerate": False},
    ),
}


@pytest.mark.parametrize("name", list(DEFAULTS))
def test_defaults_fill_in_trailing_fields(name):
    build, defaults = DEFAULTS[name]
    record = build()
    fields = RECORDS[name][2]
    assert list(defaults) == list(fields[len(fields) - len(defaults):])
    for field, value in defaults.items():
        assert getattr(record, field) == value
    required = {field: getattr(record, field) for field in fields if field not in defaults}
    assert type(record)(**required) == record
    assert type(record)(*required.values(), *defaults.values()) == record
    assert type(record)(*required.values(), **defaults) == record


@record_types
def test_missing_unknown_or_repeated_fields_raise_type_error(name):
    cls, fields, values = _fields_of(name)
    named = dict(zip(fields, values))
    without_first = dict(named)
    del without_first[fields[0]]
    required = len(fields) - len(DEFAULTS.get(name, (None, {}))[1])
    calls = [
        lambda: cls(**without_first),
        lambda: cls(*values[:required - 1]),
        lambda: cls(*values, None),
        lambda: cls(*values, bogus=1),
        lambda: cls(**named, bogus=1),
        lambda: cls(*values, **{fields[0]: values[0]}),
        lambda: cls(values[0], **named),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()
