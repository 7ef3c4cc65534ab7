"""Dataset parsing, serialization, normalization, and the embedded data."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from rivershare.core import DimensionError, InflowProfile, ObservedAllocation
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
    assert ds.units == "km³/year"


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
    ],
)
def test_load_json_errors(payload, fragment):
    with pytest.raises(DatasetError) as err:
        load_dataset(payload, "json")
    assert fragment in str(err.value)


def test_unknown_format_rejected():
    with pytest.raises(DatasetError):
        load_dataset(GOOD_CSV, "tsv")


def test_load_from_stream():
    import io

    ds = load_dataset(io.StringIO(GOOD_CSV), "csv")
    assert ds.names == ("A", "B", "C")


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


# ---------------------------------------------------------------------------
# files


def test_read_dataset_infers_format(tmp_path):
    csv_path = tmp_path / "basin.csv"
    csv_path.write_text(GOOD_CSV, encoding="utf-8")
    json_path = tmp_path / "basin.json"
    json_path.write_text(GOOD_JSON, encoding="utf-8")
    assert read_dataset(csv_path).names == ("A", "B", "C")
    assert read_dataset(json_path).names == ("A", "B", "C")


def test_read_dataset_rejects_unknown_extension(tmp_path):
    path = tmp_path / "basin.txt"
    path.write_text(GOOD_CSV, encoding="utf-8")
    with pytest.raises(DatasetError):
        read_dataset(path)


def test_read_dataset_missing_file(tmp_path):
    with pytest.raises(DatasetError) as err:
        read_dataset(tmp_path / "nope.csv")
    assert "cannot read" in str(err.value)


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


def test_len_and_units():
    ds = load_dataset(GOOD_CSV, "csv")
    assert len(ds) == 3
    assert ds.units == "km³/year"
