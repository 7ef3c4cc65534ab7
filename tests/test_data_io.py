"""Dataset parsing, serialization, normalization, and the embedded data."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from rivershare import core, data_io
from rivershare.core import DimensionError, InflowProfile, ObservedAllocation, RiverShareError
from rivershare.data_io import (
    BasinDataset,
    DatasetError,
    builtin_nile,
    dump_dataset,
    load_dataset,
    normalize_withdrawals,
    read_dataset,
)

GOOD_CSV = """agent,inflow,withdrawal
A,3.0,1.0
B,2.0,1.0
C,1.0,4.0
"""

GOOD_CSV_NO_W = "agent,inflow\nA,3.0\nB,2.0\n"

GOOD_JSON = json.dumps(
    {
        "agents": [
            {"name": "A", "inflow": 3.0, "withdrawal": 1.0},
            {"name": "B", "inflow": 2.0, "withdrawal": 1.0},
            {"name": "C", "inflow": 1.0, "withdrawal": 4.0},
        ]
    }
)


# ---------------------------------------------------------------------------
# embedded dataset


def test_builtin_nile_contents():
    ds = builtin_nile()
    assert ds.names == ("Tanzania", "Uganda", "South Sudan", "Sudan", "Egypt")
    assert ds.inflows.total == pytest.approx(115.9, abs=1e-9)
    assert ds.inflows[-1] == 0.0
    assert ds.has_withdrawals
    # the five withdrawal entries as published; their sum is 111.11 even
    # though 110.9 shows up in some summaries of the same figures
    assert math.fsum(ds.withdrawals) == pytest.approx(111.11, abs=1e-9)


def test_builtin_nile_normalization_close_to_reported():
    z = builtin_nile().normalized_withdrawals()
    reported = (5.4, 0.7, 0.7, 28.1, 81.0)
    for got, want in zip(z, reported):
        assert abs(got - want) <= 0.05
    assert math.fsum(z) == pytest.approx(115.9, abs=1e-9)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_scales_to_total_inflow():
    e = InflowProfile((3.0, 2.0, 1.0))
    z = normalize_withdrawals(e, (1.0, 1.0, 4.0))
    assert isinstance(z, ObservedAllocation)
    assert math.fsum(z) == pytest.approx(e.total, abs=1e-12)
    assert tuple(z) == (1.0, 1.0, 4.0)


def test_normalize_is_idempotent():
    e = InflowProfile((16.8, 16.2, 17.6, 65.3, 0.0))
    once = normalize_withdrawals(e, (5.18, 0.64, 0.66, 26.93, 77.7))
    twice = normalize_withdrawals(e, tuple(once))
    for a, b in zip(once, twice):
        assert a == pytest.approx(b, abs=1e-12)


def test_normalize_rejects_zero_total_and_mismatch():
    e = InflowProfile((1.0, 1.0))
    with pytest.raises(DatasetError):
        normalize_withdrawals(e, (0.0, 0.0))
    with pytest.raises(DimensionError):
        normalize_withdrawals(e, (1.0, 1.0, 1.0))


def test_normalize_rejects_an_overflowing_total():
    with pytest.raises(DatasetError, match="withdrawal total is too large to represent as a float"):
        normalize_withdrawals(InflowProfile((1.0, 2.0)), (1e308, 1e308))


def test_normalize_checks_the_amounts_it_makes():
    # a tiny withdrawal total makes the factor overflow
    with pytest.raises(RiverShareError, match="observed amount at position 0 must be finite"):
        normalize_withdrawals(InflowProfile((1e300, 1e300)), (5e-324, 0.0))
    with pytest.raises(RiverShareError, match="observed amount at position 1 must be >= 0"):
        normalize_withdrawals(InflowProfile((1.0, 1.0)), (3.0, -1.0))


# ---------------------------------------------------------------------------
# CSV


def test_load_csv_with_withdrawals():
    ds = load_dataset(GOOD_CSV, "csv")
    assert ds.names == ("A", "B", "C")
    assert tuple(ds.inflows) == (3.0, 2.0, 1.0)
    assert ds.withdrawals == (1.0, 1.0, 4.0)


def test_load_csv_without_withdrawals():
    ds = load_dataset(GOOD_CSV_NO_W, "csv")
    assert ds.names == ("A", "B")
    assert ds.withdrawals is None
    with pytest.raises(DatasetError):
        ds.normalized_withdrawals()


def test_load_csv_tolerates_blank_lines_and_case():
    text = "Agent,Inflow\n\nA,1\n\nB,2\n\n"
    ds = load_dataset(text, "csv")
    assert tuple(ds.inflows) == (1.0, 2.0)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "line 1"),
        ("agent,flow\nA,1\nB,2\n", "line 1"),
        ("agent,inflow\nA,one\nB,2\n", "line 2"),
        ("agent,inflow\nA,1\nB,-2\n", "line 3"),
        ("agent,inflow,withdrawal\nA,1,1\nB,2,-1\n", "line 3"),
        ("agent,inflow\nA,1\nB\n", "line 3"),
        ("agent,inflow\nA,1\nA,2\n", "line 3"),
        ("agent,inflow\nA,1\n,2\n", "line 3"),
        ("agent,inflow\nA,inf\nB,2\n", "line 2"),
        ("agent,inflow\nA,1\n", "two agents"),
    ],
)
def test_load_csv_errors_name_the_line(text, fragment):
    with pytest.raises(DatasetError) as err:
        load_dataset(text, "csv")
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text,message",
    [
        ("agent,inflow\nA,1\rB,2\n", "line 2: invalid CSV: new-line character seen in unquoted field"),
        ("agent,inflow\nA,1\nB," + "9" * 140_000 + "\n", "line 3: invalid CSV: field larger than field limit"),
        ("agent," + "x" * 140_000 + "\nA,1\nB,2\n", "line 1: invalid CSV: field larger than field limit"),
    ],
    ids=["bare-carriage-return", "over-long-cell", "over-long-header"],
)
def test_malformed_csv_is_a_dataset_error_naming_the_line(text, message):
    with pytest.raises(DatasetError) as err:
        load_dataset(text, "csv")
    assert str(err.value).startswith(message)


def test_duplicate_error_points_at_first_occurrence():
    with pytest.raises(DatasetError) as err:
        load_dataset("agent,inflow\nA,1\nB,2\nA,3\n", "csv")
    assert "line 4" in str(err.value) and "line 2" in str(err.value)


# ---------------------------------------------------------------------------
# JSON


def test_load_json():
    ds = load_dataset(GOOD_JSON, "json")
    assert ds.names == ("A", "B", "C")
    assert tuple(ds.inflows) == (3.0, 2.0, 1.0)
    assert ds.withdrawals == (1.0, 1.0, 4.0)


@pytest.mark.parametrize(
    "payload,fragment",
    [
        ("{not json", "invalid JSON"),
        ("[]", "'agents'"),
        ('{"agents": 5}', "array"),
        ('{"agents": [1, 2]}', "agents[0]"),
        ('{"agents": [{"name": "A", "inflow": 1}, {"inflow": 2}]}', "agents[1]"),
        ('{"agents": [{"name": "A"}, {"name": "B", "inflow": 2}]}', "inflow"),
        ('{"agents": [{"name": "A", "inflow": 1, "x": 2}, {"name": "B", "inflow": 2}]}', "'x'"),
        ('{"agents": [{"name": "A", "inflow": true}, {"name": "B", "inflow": 2}]}', "number"),
        ('{"agents": [{"name": "A", "inflow": -1}, {"name": "B", "inflow": 2}]}', ">= 0"),
        ('{"agents": [{"name": "A", "inflow": NaN}, {"name": "B", "inflow": 2}]}', "non-finite"),
        ('{"agents": [{"name": "A", "inflow": 1}, {"name": "A", "inflow": 2}]}', "duplicate"),
        ('{"agents": [{"name": "A", "inflow": 1}]}', "two agents"),
        (
            '{"agents": [{"name": "A", "inflow": 1, "withdrawal": 1}, {"name": "B", "inflow": 2}]}',
            "every agent or none",
        ),
        ('\ufeff{"agents": []}', "invalid JSON: Unexpected UTF-8 BOM"),
        pytest.param(  # deep enough for a RecursionError on Python 3.10 to 3.13
            '{"agents": ' + "[" * 10**5 + "]" * 10**5 + "}",
            "invalid JSON: arrays or objects nested too deeply",
            id="nested-10**5",
        ),
    ],
)
def test_load_json_errors(payload, fragment):
    with pytest.raises(DatasetError) as err:
        load_dataset(payload, "json")
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "payload,message",
    [
        (
            '{"agents": [{"name": "A", "inflow": 1' + "0" * 400 + '}, {"name": "B", "inflow": 2}]}',
            "agents[0]: inflow is too large to represent as a float",
        ),
        (
            '{"agents": [{"name": "A", "inflow": 1, "withdrawal": 1}, '
            '{"name": "B", "inflow": 2, "withdrawal": -1' + "0" * 309 + "}]}",
            "agents[1]: withdrawal is too large to represent as a float",
        ),
        (
            '{"agents": [{"name": "A", "inflow": 1' + "0" * 5000 + '}, {"name": "B", "inflow": 2}]}',
            "invalid JSON: an integer has more than",
        ),
    ],
    ids=["over-float-range", "negative-over-float-range", "over-digit-limit"],
)
def test_load_json_rejects_integers_out_of_range(payload, message):
    with pytest.raises(DatasetError, match=re.escape(message)):
        load_dataset(payload, "json")


def _agents(*entries) -> str:
    return json.dumps({"agents": list(entries)})


_AB = ({"name": "A", "inflow": 1}, {"name": "B", "inflow": 2})
_ABW = ({"name": "A", "inflow": 1, "withdrawal": 1}, {"name": "B", "inflow": 2, "withdrawal": 1})


def _csv(fault, text, message):
    return pytest.param("csv", text, message, id=f"csv-{fault}")


def _json(fault, text, message):
    return pytest.param("json", text, message, id=f"json-{fault}")


# inputs with one fault each, and the whole message that fault gives
@pytest.mark.parametrize(
    "fmt,text,message",
    [
        _csv("not-a-number", "agent,inflow\nA,one\nB,2\n", "line 2: inflow must be a number, got 'one'"),
        _csv("empty-withdrawal", "agent,inflow,withdrawal\nA,1,1\nB,2,\n",
             "line 3: withdrawal must be a number, got ''"),
        _csv("inf", "agent,inflow\nA,inf\nB,2\n", "line 2: inflow must be finite, got 'inf'"),
        _csv("past-float-range", "agent,inflow\nA,1\nB,1e400\n",
             "line 3: inflow must be finite, got '1e400'"),
        _csv("negative-inflow", "agent,inflow\nA,1\nB,-2\n", "line 3: inflow must be >= 0, got -2.0"),
        _csv("negative-withdrawal", "agent,inflow,withdrawal\nA,1,1\nB,2,-1\n",
             "line 3: withdrawal must be >= 0, got -1.0"),
        _csv("empty-name", "agent,inflow\nA,1\n ,2\n", "line 3: agent name must be non-empty"),
        _csv("duplicate", "agent,inflow\n\nA,1\nB,2\n\nA,3\n",
             "line 6: duplicate agent name 'A' (first at line 3)"),
        _csv("field-count", "agent,inflow\nA,1\nB\n", "line 3: expected 2 fields, got 1"),
        _csv("extra-field", "agent,inflow,withdrawal\nA,1,1\nB,2,1,0\n", "line 3: expected 3 fields, got 4"),
        _csv("one-agent", "agent,inflow\nA,1\n", "a dataset needs at least two agents, got 1"),
        _csv("no-agent", "agent,inflow\n\n", "a dataset needs at least two agents, got 0"),
        _csv("total-past-float-range", "agent,inflow\nA,1e308\nB,1e308\n",
             "total inflow is too large to represent as a float"),
        _json("string-number", _agents({"name": "A", "inflow": "1"}, _AB[1]),
              "agents[0]: inflow must be a number, got '1'"),
        _json("null-withdrawal", _agents(_ABW[0], {**_ABW[1], "withdrawal": None}),
              "agents[1]: withdrawal must be a number, got None"),
        _json("true", _agents({"name": "A", "inflow": True}, _AB[1]),
              "agents[0]: inflow must be a number, got True"),
        _json("false-withdrawal", _agents(_ABW[0], {**_ABW[1], "withdrawal": False}),
              "agents[1]: withdrawal must be a number, got False"),
        _json("past-float-range", '{"agents": [{"name": "A", "inflow": 1e400}, {"name": "B", "inflow": 2}]}',
              "agents[0]: inflow must be finite, got inf"),
        _json("negative-inflow", _agents(_AB[0], {"name": "B", "inflow": -1}),
              "agents[1]: inflow must be >= 0, got -1.0"),
        _json("negative-withdrawal", _agents({**_ABW[0], "withdrawal": -0.5}, _ABW[1]),
              "agents[0]: withdrawal must be >= 0, got -0.5"),
        _json("duplicate", _agents(_AB[0], {"name": "A", "inflow": 2}),
              "agents[1]: duplicate agent name 'A' (first at agents[0])"),
        _json("empty-name", _agents(_AB[0], {"name": "", "inflow": 2}),
              "agents[1]: agent name must be non-empty"),
        _json("no-name", _agents(_AB[0], {"inflow": 2}), "agents[1]: agent name must be a string, got None"),
        _json("name-not-a-string", _agents({"name": 5, "inflow": 1}, _AB[1]),
              "agents[0]: agent name must be a string, got 5"),
        _json("no-inflow", _agents({"name": "A"}, _AB[1]), "agents[0]: 'inflow' is required"),
        _json("unknown-field", _agents({**_AB[0], "x": 2}, _AB[1]), "agents[0]: unknown field 'x'"),
        _json("not-an-object", _agents(_AB[0], [1]), "agents[1]: each agent must be an object"),
        _json("missing-withdrawal", _agents(_ABW[0], _AB[1]),
              "agents[1]: withdrawal missing; provide the column for every agent or none"),
        _json("one-agent", _agents(_AB[0]), "a dataset needs at least two agents, got 1"),
        _json("no-agent", _agents(), "a dataset needs at least two agents, got 0"),
    ],
)
def test_each_loader_error_is_pinned(fmt, text, message):
    with pytest.raises(RiverShareError) as caught:
        load_dataset(text, fmt)
    assert str(caught.value) == message


def test_a_csv_dataset_with_several_faults_reports_names_then_inflows_then_withdrawals():
    # the faults lie upstream of one another in the reverse of the order reported
    rows = ["agent,inflow,withdrawal", "A,1,-1", "B,-2,x", "C,y,1", "A,3,1"]
    expected = [  # the fault reported, and the row that mends it
        ("line 5: duplicate agent name 'A' (first at line 2)", 4, "D,3,1"),
        ("line 4: inflow must be a number, got 'y'", 3, "C,0,1"),  # before the negative one upstream
        ("line 3: inflow must be >= 0, got -2.0", 2, "B,2,x"),
        ("line 3: withdrawal must be a number, got 'x'", 2, "B,2,1"),
        ("line 2: withdrawal must be >= 0, got -1.0", 1, "A,1,1"),
    ]
    for message, line, mended in expected:
        with pytest.raises(DatasetError) as caught:
            load_dataset("\n".join(rows), "csv")
        assert str(caught.value) == message
        rows[line] = mended
    assert load_dataset("\n".join(rows), "csv").names == ("A", "B", "C", "D")


def test_a_json_dataset_with_several_faults_reports_names_then_inflows_then_withdrawals():
    agents = [
        {"name": "A", "inflow": 1, "withdrawal": -1},
        {"name": "B", "inflow": -2, "withdrawal": math.inf},
        {"name": "", "inflow": math.inf, "withdrawal": 1},
    ]
    expected = [  # the fault reported, and the value that mends it
        ("agents[2]: agent name must be non-empty", 2, "name", "C"),
        ("agents[2]: inflow must be finite, got inf", 2, "inflow", 3),  # before the negative one upstream
        ("agents[1]: inflow must be >= 0, got -2.0", 1, "inflow", 2),
        ("agents[1]: withdrawal must be finite, got inf", 1, "withdrawal", 1),
        ("agents[0]: withdrawal must be >= 0, got -1.0", 0, "withdrawal", 1),
    ]
    for message, k, field, mended in expected:
        with pytest.raises(DatasetError) as caught:
            load_dataset(json.dumps({"agents": agents}).replace("Infinity", "1e400"), "json")
        assert str(caught.value) == message
        agents[k][field] = mended
    assert load_dataset(json.dumps({"agents": agents}), "json").names == ("A", "B", "C")


def test_unknown_format_rejected():
    with pytest.raises(DatasetError):
        load_dataset(GOOD_CSV, "tsv")
    with pytest.raises(DatasetError) as err:
        dump_dataset(builtin_nile(), "xml")
    assert str(err.value) == "unknown dataset format 'xml', expected csv or json"


def test_load_from_stream():
    import io

    ds = load_dataset(io.StringIO(GOOD_CSV), "csv")
    assert ds.names == ("A", "B", "C")


def test_a_stream_that_fails_to_decode_is_one_dataset_error():
    stream = io.TextIOWrapper(io.BytesIO(b"agent,inflow\nA\xe9,1\n"), encoding="utf-8")
    with pytest.raises(DatasetError) as err:
        load_dataset(stream, "csv")
    assert str(err.value).startswith(
        "cannot read the dataset stream: 'utf-8' codec can't decode byte 0xe9"
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_binary_stream_is_refused_in_every_format(fmt):
    text = dump_dataset(load_dataset(GOOD_CSV, "csv"), fmt)
    with pytest.raises(DatasetError) as err:
        load_dataset(io.BytesIO(text.encode()), fmt)
    assert str(err.value) == "cannot read the dataset stream: it gives bytes, not text"
    assert load_dataset(io.StringIO(text), fmt) == load_dataset(GOOD_CSV, "csv")


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: load_dataset(GOOD_CSV.encode(), "csv"),
         "a dataset source must be text or a readable text stream, got bytes"),
        (lambda: load_dataset(None, "csv"),
         "a dataset source must be text or a readable text stream, got NoneType"),
        (lambda: load_dataset(GOOD_CSV, None), "unknown dataset format None, expected csv or json"),
        (lambda: dump_dataset(builtin_nile(), None), "unknown dataset format None, expected csv or json"),
    ],
    ids=["bytes", "none-source", "none-format-load", "none-format-dump"],
)
def test_a_source_or_format_of_another_type_is_one_dataset_error(call, message):
    with pytest.raises(DatasetError) as err:
        call()
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# round trips


AWKWARD = BasinDataset(
    names=("Last, First", 'quote "me"', "plain"),
    inflows=InflowProfile((0.1 + 0.2, 1e-7, 123456.789)),
    withdrawals=(0.0, 2.5, 1.0 / 3.0),
)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("ds", [builtin_nile(), AWKWARD], ids=["nile", "awkward"])
def test_dump_load_round_trip_is_exact(fmt, ds):
    text = dump_dataset(ds, fmt)
    back = load_dataset(text, fmt)
    assert back.names == ds.names
    assert tuple(back.inflows) == tuple(ds.inflows)
    assert back.withdrawals == ds.withdrawals
    assert dump_dataset(back, fmt) == text


_name = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), max_codepoint=0x2FF),
    min_size=1,
    max_size=8,
)
_value = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)


@given(
    names=st.lists(_name, min_size=2, max_size=6, unique=True),
    seed=st.integers(0, 2**32 - 1),
    with_w=st.booleans(),
    fmt=st.sampled_from(["csv", "json"]),
    data=st.data(),
)
def test_round_trip_property(names, seed, with_w, fmt, data):
    n = len(names)
    inflows = data.draw(st.lists(_value, min_size=n, max_size=n))
    withdrawals = tuple(data.draw(st.lists(_value, min_size=n, max_size=n))) if with_w else None
    ds = BasinDataset(names=tuple(names), inflows=InflowProfile(tuple(inflows)), withdrawals=withdrawals)
    back = load_dataset(dump_dataset(ds, fmt), fmt)
    assert back.names == ds.names
    assert tuple(back.inflows) == tuple(ds.inflows)
    assert back.withdrawals == ds.withdrawals


def reference_json(ds: BasinDataset) -> str:
    """The JSON dump as the standard library's encoder writes it."""
    agents = []
    for k, name in enumerate(ds.names):
        entry = {"name": name, "inflow": ds.inflows[k]}
        if ds.has_withdrawals:
            entry["withdrawal"] = ds.withdrawals[k]
        agents.append(entry)
    return json.dumps({"agents": agents}, indent=2) + "\n"


# names that need escaping: quotes, backslashes, control characters,
# non-ASCII and astral characters, mixed with plain ones
_awkward_name = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\n\t\r '),
        st.characters(min_codepoint=0x80, max_codepoint=0xFFFF),
        st.characters(min_codepoint=0x10000),
        st.characters(),
    ),
    min_size=1,
    max_size=6,
)


def _amounts(n: int):
    # the largest entries keep n of them from overflowing the total
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 1e308 / n]),
        st.integers(0, 2**53).map(float),
        st.floats(min_value=0.0, max_value=1e308 / n),
    )
    return st.lists(value, min_size=n, max_size=n)


@settings(deadline=None)
@given(names=st.lists(_awkward_name, min_size=2, max_size=8, unique=True), with_w=st.booleans(), data=st.data())
def test_json_dump_is_the_standard_encoding(names, with_w, data):
    n = len(names)
    inflows = InflowProfile(tuple(data.draw(_amounts(n))))
    withdrawals = tuple(data.draw(_amounts(n))) if with_w else None
    ds = BasinDataset(names=tuple(names), inflows=inflows, withdrawals=withdrawals)
    text = dump_dataset(ds, "json")
    assert text == reference_json(ds)
    back = load_dataset(text, "json")
    assert back == ds
    assert dump_dataset(back, "json") == text


@pytest.mark.parametrize("ds", [builtin_nile(), AWKWARD, load_dataset(GOOD_CSV_NO_W, "csv")])
def test_json_dump_of_fixed_datasets_is_the_standard_encoding(ds):
    assert dump_dataset(ds, "json") == reference_json(ds)


def reference_csv(ds: BasinDataset) -> str:
    """The CSV dump as the standard library's writer writes it."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    columns = (ds.names, map(repr, ds.inflows))
    if ds.has_withdrawals:
        writer.writerow(["agent", "inflow", "withdrawal"])
        writer.writerows(zip(*columns, map(repr, ds.withdrawals)))
    else:
        writer.writerow(["agent", "inflow"])
        writer.writerows(zip(*columns))
    return buffer.getvalue()


# names built from the characters CSV has to quote or strip
_csv_name = st.text(alphabet=st.sampled_from(',"\r\n ab\x00'), min_size=1, max_size=6).filter(str.strip)


@settings(deadline=None)
@example(names=["a\rb", "c"], with_w=True)
@example(names=[" a", "b"], with_w=False)
@example(names=["a\x00b", "c"], with_w=False)
@given(names=st.lists(_csv_name, min_size=2, max_size=6, unique=True), with_w=st.booleans())
def test_csv_dump_round_trips_or_names_the_agent_it_cannot_carry(names, with_w):
    n = len(names)
    withdrawals = tuple(float(k) for k in range(n)) if with_w else None
    ds = BasinDataset(tuple(names), InflowProfile([0.1 * k for k in range(n)]), withdrawals)
    assert load_dataset(dump_dataset(ds, "json"), "json") == ds
    # the CSV loader strips each field, and Python 3.10's csv reads no NUL
    refused = [name for name in names if name != name.strip() or "\x00" in name]
    if refused:
        name = refused[0]
        fault = "starts or ends with whitespace" if name != name.strip() else "holds a NUL"
        with pytest.raises(DatasetError) as caught:
            dump_dataset(ds, "csv")
        assert str(caught.value) == (
            f"agent name {name!r} {fault}, which the CSV form does not keep; dump the dataset as JSON"
        )
        return
    text = dump_dataset(ds, "csv")
    assert load_dataset(text, "csv") == ds
    if not any("\r" in name for name in names):
        assert text == reference_csv(ds)


@pytest.mark.parametrize("ds", [builtin_nile(), AWKWARD, load_dataset(GOOD_CSV_NO_W, "csv")])
def test_csv_dump_of_fixed_datasets_is_the_standard_writing(ds):
    assert dump_dataset(ds, "csv") == reference_csv(ds)


# ---------------------------------------------------------------------------
# files


def test_read_dataset_infers_format(tmp_path):
    csv_path = tmp_path / "basin.csv"
    csv_path.write_text(GOOD_CSV, encoding="utf-8")
    json_path = tmp_path / "basin.json"
    json_path.write_text(GOOD_JSON, encoding="utf-8")
    assert read_dataset(csv_path).names == ("A", "B", "C")
    assert read_dataset(json_path).names == ("A", "B", "C")


@pytest.mark.parametrize("name,text", [("basin.csv", GOOD_CSV), ("basin.json", GOOD_JSON)], ids=["csv", "json"])
def test_read_dataset_skips_a_byte_order_mark(tmp_path, name, text):
    # as a spreadsheet's "CSV UTF-8" starts its file
    plain = tmp_path / name
    plain.write_text(text, encoding="utf-8")
    marked = tmp_path / f"bom-{name}"
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert read_dataset(marked) == read_dataset(plain)


def test_read_dataset_rejects_unknown_extension(tmp_path):
    path = tmp_path / "basin.txt"
    path.write_text(GOOD_CSV, encoding="utf-8")
    with pytest.raises(DatasetError):
        read_dataset(path)


class _PathOf(os.PathLike):
    def __init__(self, path):
        self.path = path

    def __fspath__(self):
        return self.path


def test_read_dataset_takes_a_path_of_text(tmp_path):
    path = tmp_path / "basin.csv"
    path.write_text(GOOD_CSV, encoding="utf-8")
    assert read_dataset(_PathOf(str(path))).names == ("A", "B", "C")
    with pytest.raises(DatasetError) as err:
        read_dataset(_PathOf(bytes(path)))
    assert str(err.value) == "a dataset path must be a str or an os.PathLike of one, got bytes"


def test_read_dataset_missing_file(tmp_path):
    with pytest.raises(DatasetError) as err:
        read_dataset(tmp_path / "nope.csv")
    assert "cannot read" in str(err.value)


@pytest.mark.parametrize(
    "name,data",
    [("latin1.csv", b"agent,inflow\nA\xe9,1\nB,2\n"), ("latin1.json", b'{"agents": [{"name": "A\xe9"}]}')],
    ids=["csv", "json"],
)
def test_read_dataset_that_is_not_utf8_is_one_dataset_error(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(DatasetError) as err:
        read_dataset(path)
    assert str(err.value).startswith(f"cannot read {path}: 'utf-8' codec can't decode byte 0xe9")


# ---------------------------------------------------------------------------
# dataclass validation


def test_basin_dataset_validation():
    with pytest.raises(DimensionError):
        BasinDataset(names=("A",), inflows=InflowProfile((1.0, 2.0)))
    with pytest.raises(DatasetError):
        BasinDataset(names=("A", "A"), inflows=InflowProfile((1.0, 2.0)))
    with pytest.raises(DatasetError):
        BasinDataset(names=("A", ""), inflows=InflowProfile((1.0, 2.0)))
    with pytest.raises(DimensionError):
        BasinDataset(names=("A", "B"), inflows=InflowProfile((1.0, 2.0)), withdrawals=(1.0,))
    with pytest.raises(DatasetError):
        BasinDataset(names=("A", "B"), inflows=InflowProfile((1.0, 2.0)), withdrawals=(1.0, -1.0))


def test_basin_dataset_checks_plain_inflows():
    # a plain sequence is checked as a profile, so a bad one fails here and
    # not later in a writer
    with pytest.raises(RiverShareError, match="^inflow at position 1 must be finite, got nan$"):
        BasinDataset(("a", "b"), (-1.0, math.nan), (1, 2))
    dataset = BasinDataset(("a", "b"), (1, 2.5), (1, 2))
    assert dataset.inflows == InflowProfile((1.0, 2.5))
    assert dump_dataset(dataset, "csv") == "agent,inflow,withdrawal\na,1.0,1.0\nb,2.5,2.0\n"


def test_basin_dataset_messages():
    profile = InflowProfile((1.0, 2.0))
    cases = [
        (DatasetError, "agent names must be non-empty", (("A", ""), profile)),
        (DatasetError, "duplicate agent name 'A'", (("A", "A"), profile)),
        (DatasetError, "agent names must be non-empty", (("", "A", "A"), InflowProfile((1, 2, 3)))),
        (DimensionError, "1 names for 2 inflows", (("A",), profile)),
        (DimensionError, "3 withdrawals for 2 inflows", (("A", "B"), profile, (1, 2, 3))),
        (DatasetError, "withdrawal at position 1 must be finite, got nan",
         (("A", "B"), profile, (1.0, math.nan))),
        (DatasetError, "withdrawal at position 0 must be >= 0, got -1.0",
         (("A", "B"), profile, (-1, 2))),
        (DatasetError, "withdrawal at position 1 must be finite, got inf",
         (("A", "B"), profile, (-1, math.inf))),
        (DatasetError, "withdrawal at position 1 must be finite, got 'inf'",
         (("A", "B"), profile, ("0", "inf"))),
        (DatasetError, "agent name at position 0 must be a string, got 1", ((1, 2), profile)),
        (DatasetError, "agent name at position 1 must be a string, got ['B']", (["A", ["B"]], profile)),
        (DatasetError, "agent names must be a sequence of strings, not the str 'AB'", ("AB", profile)),
    ]
    for error, message, args in cases:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            BasinDataset(*args)
    # withdrawals whose total overflows are a dataset; only normalizing them fails
    big = BasinDataset(("A", "B"), profile, (1e308, 1e308))
    assert big.withdrawals == (1e308, 1e308)
    with pytest.raises(DatasetError, match="^withdrawal total is too large to represent as a float$"):
        big.normalized_withdrawals()


def test_names_are_kept_as_a_tuple():
    from_list = BasinDataset(["A", "B"], (1.0, 2.0))
    assert from_list.names == ("A", "B")
    assert from_list == BasinDataset(("A", "B"), (1.0, 2.0))
    assert hash(from_list) == hash(BasinDataset(("A", "B"), (1.0, 2.0)))
    assert load_dataset(dump_dataset(from_list, "json"), "json") == from_list


def test_len_and_units():
    ds = load_dataset(GOOD_CSV, "csv")
    assert len(ds) == 3
    # no loader reads a unit and no dump writes one, so a dataset holds none
    assert not hasattr(ds, "units")


# ---------------------------------------------------------------------------
# the bulk check and the row walk


def _csv_with_blank_lines(names, inflows, withdrawals=None, crlf=False) -> str:
    """CSV with a blank line before every row, written without data_io."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n" if crlf else "\n")
    writer.writerow(["Agent", " Inflow"] + ([] if withdrawals is None else ["withdrawal "]))
    for row in zip(names, inflows, *([] if withdrawals is None else [withdrawals])):
        writer.writerow([])
        writer.writerow(row)
    return buffer.getvalue()


WELL_FORMED = [
    (GOOD_CSV, "csv"),
    (GOOD_CSV_NO_W, "csv"),
    ("Agent,Inflow\n\nA,1\n\nB,2\n\n", "csv"),
    (GOOD_CSV.replace("\n", "\r\n"), "csv"),
    (_csv_with_blank_lines([" up ", "mid", "down"], ["3", " 2.5", "1e-3 "], ["0", "-0.0", "7"]), "csv"),
    (_csv_with_blank_lines(["a", "b"], ["1_000", "0"], crlf=True), "csv"),
    (dump_dataset(builtin_nile(), "csv"), "csv"),
    (dump_dataset(AWKWARD, "csv"), "csv"),
    (GOOD_JSON, "json"),
    ('{"agents": [{"inflow": 3, "name": "A"}, {"name": "B", "inflow": 0}]}', "json"),
    ('{"agents": [{"name": "A", "inflow": 1e308, "withdrawal": 0}, '
     '{"name": "B", "inflow": -0.0, "withdrawal": 2}], "units": "ignored"}', "json"),
    (dump_dataset(builtin_nile(), "json"), "json"),
    (dump_dataset(AWKWARD, "json"), "json"),
    (json.dumps({"agents": [{"name": "A", "inflow": 1.5}, {"name": "B", "inflow": 2}]}), "json"),
]


@pytest.mark.parametrize("text,fmt", WELL_FORMED)
def test_well_formed_datasets_never_take_the_row_walk(monkeypatch, text, fmt):
    walked = _walked(text, fmt)

    def refuse(*args):
        raise AssertionError("a well-formed dataset was walked row by row")

    monkeypatch.setattr(data_io, "_walk_csv", refuse)
    monkeypatch.setattr(data_io, "_walk_json", refuse)
    assert _bits(load_dataset(text, fmt)) == _bits(walked)


@pytest.mark.parametrize("text,fmt", WELL_FORMED)
def test_well_formed_datasets_never_take_the_constructors_walks(monkeypatch, text, fmt):
    # the constructors accept well-formed columns and normalized withdrawals
    # in bulk; their entry-by-entry walks are only for naming a fault
    walked = _walked(text, fmt)
    expected = walked.normalized_withdrawals() if walked.has_withdrawals else None

    def refuse(*args):
        raise AssertionError("a well-formed dataset was walked entry by entry")

    for module, name in [
        (core, "_walk_floats"), (data_io, "_walk_names"),
        (data_io, "_walk_csv"), (data_io, "_walk_json"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    ds = load_dataset(text, fmt)
    assert _bits(ds) == _bits(walked)
    if expected is not None:
        normalized = ds.normalized_withdrawals()
        assert list(map(float.hex, normalized)) == list(map(float.hex, expected))


@pytest.mark.parametrize("header", ["agent,inflow", "agent,inflow,withdrawal"])
def test_rows_of_empty_cells_take_the_bulk_path(monkeypatch, header):
    # a spreadsheet saves a blank line as a row of empty cells, such as ",,"
    width = header.count(",") + 1
    rows = [",".join(cells[:width]) for cells in (("A", "3", "1"), ("B", "2", "1"), ("C", "1", "0"))]
    plain = "\n".join([header, *rows]) + "\n"
    padded = "\n".join([header, rows[0], ",,", rows[1], ",", '"",', rows[2], ",,", ",,"]) + "\n"
    expected = load_dataset(plain, "csv")

    def refuse(*args):
        raise AssertionError("rows of empty cells sent the dataset through the row walk")

    monkeypatch.setattr(data_io, "_walk_csv", refuse)
    assert _bits(load_dataset(padded, "csv")) == _bits(expected)


def _walked(text: str, fmt: str):
    """load_dataset with the bulk checks turned off: every input takes the
    row walk."""
    with mock.patch.object(data_io, "_csv_columns", return_value=None), mock.patch.object(
        data_io, "_json_columns", return_value=None
    ):
        return load_dataset(text, fmt)


def _bits(ds: BasinDataset) -> tuple:
    """Every field of `ds`, with each float as its bit pattern."""
    hexed = (lambda values: None if values is None else tuple(map(float.hex, values)))
    return (ds.__class__, ds.names, hexed(ds.inflows.inflows), hexed(ds.withdrawals))


def _outcome(load):
    try:
        return ("ok", _bits(load()))
    except RiverShareError as exc:
        return (type(exc).__name__, str(exc))


# each number as (CSV cell, JSON literal); the first six are valid
_NUMBERS = [
    ("1.5", "1.5"), ("0", "0"), ("3", "3"), ("-0.0", "-0.0"), (" 2e-3 ", "2e-3"),
    ("1e308", "1e308"), ("-2", "-2"), ("nan", "NaN"), ("inf", "Infinity"),
    ("-inf", "-Infinity"), ("1e999", "1e999"), ("abc", '"abc"'), ("", "null"),
    ("true", "true"), ("\x1c4", '"4"'), ("1" + "0" * 400, "1" + "0" * 400),
    ("-1" + "0" * 310, "-1" + "0" * 310), ("1" + "0" * 4400, "1" + "0" * 4400),
]
_NAMES = ["A", "B", "Ä", 'q"q', "x,y", " padded "]
_FAULTS = [None, "name", "number", "extra field", "missing field", "agent", "several"]


@st.composite
def _dataset_texts(draw):
    """Dataset texts of every kind: well-formed, or with one kind of fault
    (or several at once): duplicate, empty or non-string names; negative,
    non-finite, non-numeric, boolean or out-of-range numbers; missing or
    extra fields; an agent that is not an object.  Overflowing totals,
    blank and whitespace rows and too few agents come on their own."""
    fmt = draw(st.sampled_from(["csv", "json"]))
    with_w = draw(st.booleans())
    n = draw(st.integers(0, 5))
    fault = draw(st.sampled_from(_FAULTS))
    good = st.one_of(
        st.sampled_from(_NUMBERS[:6]), st.floats(0.0, 1e6).map(lambda x: (repr(x), repr(x)))
    )
    names = [draw(st.sampled_from(_NAMES)) + str(i) for i in range(n)]
    rows = [[draw(good) for _ in range(1 + with_w)] for _ in range(n)]
    not_objects = {}  # JSON agents replaced by another value
    for _ in range(draw(st.integers(1, 3)) if n and fault else 0):
        kind = draw(st.sampled_from(_FAULTS[1:-1])) if fault == "several" else fault
        i = draw(st.integers(0, n - 1))
        if kind == "name":
            names[i] = draw(st.sampled_from(["", " ", names[0], f" {names[0]}", 5]))
        elif kind == "number" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(_NUMBERS[6:]))
        elif kind == "extra field":
            rows[i].append(("9", "9"))
        elif kind == "missing field" and rows[i]:
            rows[i].pop()
        elif kind == "agent":
            not_objects[i] = draw(st.sampled_from(["1", "null", "[]", '"A"']))
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["agent", "inflow"] + ["withdrawal"] * with_w)
        for name, row in zip(names, rows):
            if draw(st.integers(0, 5)) == 0:
                buffer.write(draw(st.sampled_from(["\n", "  \n", " , \n", ",,\n"])))
            writer.writerow([name] + [cell for cell, _ in row])
        return buffer.getvalue(), fmt
    agents = []
    for i, (name, row) in enumerate(zip(names, rows)):
        values = [json.dumps(name)] + [literal for _, literal in row]
        items = [f'"{key}": {value}' for key, value in zip(("name", "inflow", "withdrawal", "x"), values)]
        agents.append(not_objects.get(i) or "{" + ", ".join(draw(st.permutations(items))) + "}")
    return '{"agents": [' + ", ".join(agents) + "]}", fmt


@settings(deadline=None, max_examples=400)
@given(case=_dataset_texts())
@example(case=("agent,inflow\nA,1e308\nB,1e308\n", "csv"))
@example(case=("agent,inflow,withdrawal\nA,1,1e308\nB,2,1e308\n", "csv"))
@example(case=("agent,inflow\n , \nA,1\nB,2\n", "csv"))
@example(case=('{"agents": [{"name": "A", "inflow": 1e308}, {"name": "B", "inflow": 1e308}]}', "json"))
@example(case=(
    '{"agents": [{"name": "A", "inflow": 1, "withdrawal": 1e308}, '
    '{"name": "B", "inflow": 1, "withdrawal": 1e308}]}', "json"
))
@example(case=('{"agents": [{"name": "A", "inflow": 1}, {"name": "B", "inflow": false}]}', "json"))
@example(case=('{"agents": [{"name": "A", "inflow": 1}, {"name": "B", "x": 2}]}', "json"))
def test_bulk_check_agrees_with_the_row_walk(case):
    text, fmt = case
    assert _outcome(lambda: load_dataset(text, fmt)) == _outcome(lambda: _walked(text, fmt))
