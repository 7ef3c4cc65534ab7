"""Dataset ingestion and the embedded Nile basin case-study data.

Datasets arrive as CSV (header ``agent,inflow[,withdrawal]``) or JSON (an
object with an ``agents`` array of ``{name, inflow, withdrawal?}``), rows
ordered upstream to downstream.  Row order is river order; there is no
reordering key.

A loader hands the columns straight to the constructors, whose checks
run in bulk, in C builtins: `BasinDataset` checks that the names are
non-empty and distinct, and its withdrawals and `InflowProfile`'s inflows
pass the package's one float-vector check (every entry a finite number
>= 0; for the inflows, a finite total too).  Only input that these checks
reject is walked row by row; the walk words the error and names the
offending line (CSV) or array index (JSON).  A number outside the float
range is an error too: a JSON integer too large to convert, a JSON
integer longer than Python converts at all, or withdrawals whose total
overflows when they are normalized.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from itertools import repeat
from operator import mul

from .core import (
    DimensionError,
    InflowProfile,
    ObservedAllocation,
    RiverShareError,
    _checked_floats,
    _Record,
    as_profile,
)


class DatasetError(RiverShareError):
    """A dataset is malformed; the message points at the offending row."""


class BasinDataset(_Record):
    """Named agents along one river, their inflows as an `InflowProfile`, and optional withdrawals."""

    __slots__ = _fields = ("names", "inflows", "withdrawals", "units")

    def __init__(
        self,
        names: tuple[str, ...],
        inflows: InflowProfile,
        withdrawals: tuple[float, ...] | None = None,
        units: str = "km³/year",
    ):
        inflows = as_profile(inflows)
        if len(names) != len(inflows):
            raise DimensionError(f"{len(names)} names for {len(inflows)} inflows")
        if not all(names) or len(set(names)) != len(names):
            _walk_names(names)
        if withdrawals is not None:
            # a total past the float range is allowed: only normalizing fails on it
            withdrawals, _ = _checked_floats(withdrawals, "withdrawal", DatasetError, True)
            if len(withdrawals) != len(inflows):
                raise DimensionError(f"{len(withdrawals)} withdrawals for {len(inflows)} inflows")
        _Record.__init__(self, names, inflows, withdrawals, units)

    def __len__(self) -> int:
        return len(self.inflows)

    @property
    def has_withdrawals(self) -> bool:
        return self.withdrawals is not None

    def normalized_withdrawals(self) -> ObservedAllocation:
        if self.withdrawals is None:
            raise DatasetError("dataset has no withdrawal column")
        return normalize_withdrawals(self.inflows, self.withdrawals)


def _walk_names(names) -> None:
    """Raise naming the first empty or repeated name."""
    seen = set()
    for name in names:
        if not name:
            raise DatasetError("agent names must be non-empty")
        if name in seen:
            raise DatasetError(f"duplicate agent name {name!r}")
        seen.add(name)


def normalize_withdrawals(e, withdrawals) -> ObservedAllocation:
    """Rescale withdrawals proportionally so they sum to the total inflow.

    Idempotent: vectors already summing to the total inflow pass through
    with a scaling factor of one (up to float rounding).
    """
    e = as_profile(e)
    values, total = _checked_floats(withdrawals, "withdrawal", DatasetError, False)
    if len(values) != len(e):
        raise DimensionError(f"{len(values)} withdrawals for {len(e)} inflows")
    if total == math.inf:
        raise DatasetError("withdrawal total is too large to represent as a float")
    if not total > 0.0:
        raise DatasetError(f"withdrawals must have a positive total, got {total}")
    factor = e.total / total
    return ObservedAllocation(tuple(map(mul, values, repeat(factor))))


# ---------------------------------------------------------------------------
# parsing


def _parse_number(text, where: str, what: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise DatasetError(f"{where}: {what} must be a number, got {text!r}") from None
    except OverflowError:  # a JSON integer beyond the float range
        raise DatasetError(f"{where}: {what} is too large to represent as a float") from None
    if not math.isfinite(value):
        raise DatasetError(f"{where}: {what} must be finite, got {text!r}")
    return value


def _build_dataset(rows: list[tuple[str, str, float, float | None]]) -> BasinDataset:
    # rows: (where, name, inflow, withdrawal-or-None), already value-checked
    if len(rows) < 2:
        raise DatasetError(f"a dataset needs at least two agents, got {len(rows)}")
    seen = {}  # name: where, in river order
    inflows = []
    withdrawals = []
    with_count = 0
    for where, name, inflow, withdrawal in rows:
        if name in seen:
            raise DatasetError(f"{where}: duplicate agent name {name!r} (first at {seen[name]})")
        seen[name] = where
        if inflow < 0.0:
            raise DatasetError(f"{where}: inflow must be >= 0, got {inflow}")
        inflows.append(inflow)
        if withdrawal is not None:
            if withdrawal < 0.0:
                raise DatasetError(f"{where}: withdrawal must be >= 0, got {withdrawal}")
            with_count += 1
        withdrawals.append(withdrawal)
    if 0 < with_count < len(rows):
        missing = next(where for (where, _, _, w) in rows if w is None)
        raise DatasetError(
            f"{missing}: withdrawal missing; provide the column for every agent or none"
        )
    return BasinDataset(
        tuple(seen), InflowProfile(tuple(inflows)), tuple(withdrawals) if with_count else None
    )


def _columns_dataset(names, inflows, withdrawals) -> BasinDataset | None:
    """The dataset of these columns, or None when a constructor rejects them,
    so that the row walk words the error.  `names` is a tuple of strings;
    `inflows` and `withdrawals` (or None) are columns of numbers or number
    texts, as long as `names`."""
    try:
        return BasinDataset(names, InflowProfile(inflows), withdrawals)
    except RiverShareError:
        return None


def _load_csv(text: str) -> BasinDataset:
    reader = csv.reader(io.StringIO(text))
    try:
        header = [h.strip().casefold() for h in next(reader)]
        if header not in (["agent", "inflow"], ["agent", "inflow", "withdrawal"]):
            raise DatasetError(
                f"line 1: header must be agent,inflow or agent,inflow,withdrawal, got {','.join(header)}"
            )
        rows = list(reader)
    except StopIteration:
        raise DatasetError("line 1: empty input, expected header agent,inflow[,withdrawal]") from None
    except csv.Error as exc:  # e.g. an over-long field, or a bare carriage return
        raise DatasetError(f"line {reader.line_num}: invalid CSV: {exc}") from None
    dataset = _csv_columns(rows, len(header))
    return _walk_csv(rows, len(header)) if dataset is None else dataset


def _csv_columns(rows: list[list[str]], width: int) -> BasinDataset | None:
    """The bulk check of CSV rows below the header; empty lines are skipped."""
    try:
        columns = tuple(zip(*filter(None, rows), strict=True))
    except ValueError:  # rows of different lengths
        return None
    if len(columns) != width:
        return None
    names = tuple(map(str.strip, columns[0]))
    return _columns_dataset(names, columns[1], columns[2] if width == 3 else None)


def _walk_csv(rows: list[list[str]], width: int) -> BasinDataset:
    """The row-by-row check of CSV rows below the header, which names the
    line of the first fault."""
    checked = []
    for line_no, row in enumerate(rows, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue  # ignore blank lines
        where = f"line {line_no}"
        if len(row) != width:
            raise DatasetError(f"{where}: expected {width} fields, got {len(row)}")
        name = row[0].strip()
        if not name:
            raise DatasetError(f"{where}: agent name must be non-empty")
        inflow = _parse_number(row[1].strip(), where, "inflow")
        withdrawal = _parse_number(row[2].strip(), where, "withdrawal") if width == 3 else None
        checked.append((where, name, inflow, withdrawal))
    return _build_dataset(checked)


def _reject_constant(text):
    raise DatasetError(f"non-finite JSON value {text!r} is not allowed")


#: One decoder for every JSON dataset; `json.loads` with an argument
#: builds a new one per call.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _decode_json(text):
    """`json.loads(text, parse_constant=_reject_constant)` on `_DECODER`,
    with the one parse error `json` leaves unworded made a DatasetError."""
    if not isinstance(text, str):
        text = text.decode(json.detect_encoding(text), "surrogatepass")
    elif text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        return _DECODER.decode(text)
    except (json.JSONDecodeError, DatasetError):
        raise
    except ValueError:  # int() refuses a literal of that many digits
        raise DatasetError(
            f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits,"
            " too large to represent as a float"
        ) from None


def _load_json(text: str) -> BasinDataset:
    try:
        payload = _decode_json(text)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict) or "agents" not in payload:
        raise DatasetError("top level must be an object with an 'agents' array")
    agents = payload["agents"]
    if not isinstance(agents, list):
        raise DatasetError("'agents' must be an array")
    dataset = _json_columns(agents)
    return _walk_json(agents) if dataset is None else dataset


_FIELDS = ("name", "inflow", "withdrawal")
_NUMBER_TYPES = {int, float}  # not bool: its type is neither


def _json_columns(agents: list) -> BasinDataset | None:
    """The bulk check of the 'agents' array.

    The first agent says whether there is a withdrawal field; then every
    agent must be an object with exactly the fields that leaves, since a
    field that `dict.get` misses reads as None and fails the type checks.
    """
    if not agents or set(map(type, agents)) != {dict}:
        return None
    fields = _FIELDS if "withdrawal" in agents[0] else _FIELDS[:2]
    if set(map(len, agents)) != {len(fields)}:
        return None
    names, inflows, *withdrawals = [tuple(map(dict.get, agents, repeat(f))) for f in fields]
    if set(map(type, names)) != {str} or not all(
        set(map(type, column)) <= _NUMBER_TYPES for column in (inflows, *withdrawals)
    ):
        return None
    return _columns_dataset(names, inflows, withdrawals[0] if withdrawals else None)


def _walk_json(agents: list) -> BasinDataset:
    """The entry-by-entry check of the 'agents' array, which names the
    index of the first fault."""
    rows = []
    for k, entry in enumerate(agents):
        where = f"agents[{k}]"
        if not isinstance(entry, dict):
            raise DatasetError(f"{where}: each agent must be an object")
        unknown = set(entry) - {"name", "inflow", "withdrawal"}
        if unknown:
            raise DatasetError(f"{where}: unknown field {sorted(unknown)[0]!r}")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise DatasetError(f"{where}: 'name' must be a non-empty string")
        if "inflow" not in entry:
            raise DatasetError(f"{where}: 'inflow' is required")
        inflow = _json_number(entry, "inflow", where)
        withdrawal = _json_number(entry, "withdrawal", where) if "withdrawal" in entry else None
        rows.append((where, name, inflow, withdrawal))
    return _build_dataset(rows)


def _json_number(entry: dict, field: str, where: str) -> float:
    """The number in `entry[field]`: a JSON number, not a boolean."""
    value = entry[field]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DatasetError(f"{where}: {field} must be a number, got {value!r}")
    return _parse_number(value, where, field)


def load_dataset(source: str | io.TextIOBase, format: str) -> BasinDataset:
    """Parse a dataset from text or a readable stream.

    `format` is "csv" or "json".  Errors carry the offending line (CSV) or
    array index (JSON).
    """
    text = source if isinstance(source, str) else source.read()
    fmt = format.strip().casefold()
    if fmt == "csv":
        return _load_csv(text)
    if fmt == "json":
        return _load_json(text)
    raise DatasetError(f"unknown dataset format {format!r}, expected csv or json")


def read_dataset(path) -> BasinDataset:
    """Load a dataset file, inferring the format from the extension."""
    suffix = os.path.splitext(path)[1].casefold()
    if suffix == ".csv":
        fmt = "csv"
    elif suffix == ".json":
        fmt = "json"
    else:
        raise DatasetError(f"cannot infer format from {os.path.basename(path)!r}; use a .csv or .json file")
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from None
    return load_dataset(text, fmt)


def dump_dataset(dataset: BasinDataset, format: str) -> str:
    """Serialize a dataset so that load_dataset round-trips it exactly."""
    fmt = format.strip().casefold()
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        inflows = map(repr, dataset.inflows.inflows)
        if dataset.has_withdrawals:
            writer.writerow(["agent", "inflow", "withdrawal"])
            writer.writerows(zip(dataset.names, inflows, map(repr, dataset.withdrawals)))
        else:
            writer.writerow(["agent", "inflow"])
            writer.writerows(zip(dataset.names, inflows))
        return buffer.getvalue()
    if fmt == "json":
        # the bytes of json.dumps({"agents": [...]}, indent=2), written
        # directly: with an indent json.dumps never uses its C encoder
        quote = json.encoder.encode_basestring_ascii
        if dataset.has_withdrawals:
            agents = [
                f'    {{\n      "name": {quote(name)},\n      "inflow": {inflow!r},\n'
                f'      "withdrawal": {withdrawal!r}\n    }}'
                for name, inflow, withdrawal in zip(
                    dataset.names, dataset.inflows.inflows, dataset.withdrawals
                )
            ]
        else:
            agents = [
                f'    {{\n      "name": {quote(name)},\n      "inflow": {inflow!r}\n    }}'
                for name, inflow in zip(dataset.names, dataset.inflows.inflows)
            ]
        return '{\n  "agents": [\n' + ",\n".join(agents) + "\n  ]\n}\n"
    raise DatasetError(f"unknown dataset format {format!r}, expected csv or json")


def builtin_nile() -> BasinDataset:
    """The embedded Nile basin dataset, upstream to downstream.

    Inflows are annual contributions in km³/year and withdrawals are the
    observed freshwater withdrawals of each country (AQUASTAT figures).
    Note that the five withdrawal entries sum to 111.11 km³/year; summaries
    of these figures sometimes quote 110.9.  The per-country values are
    embedded as they are, and normalization rescales them to the 115.9
    km³/year aggregate inflow.
    """
    return BasinDataset(
        names=("Tanzania", "Uganda", "South Sudan", "Sudan", "Egypt"),
        inflows=InflowProfile((16.8, 16.2, 17.6, 65.3, 0.0)),
        withdrawals=(5.18, 0.64, 0.66, 26.93, 77.7),
    )
