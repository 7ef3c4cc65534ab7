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
from operator import mul, ne

from .core import (
    DimensionError,
    InflowProfile,
    ObservedAllocation,
    RiverShareError,
    _as_finite_float,
    _as_tuple,
    _checked_floats,
    _Record,
    as_profile,
)


class DatasetError(RiverShareError):
    """A dataset is malformed; the message points at the offending row."""


class BasinDataset(_Record):
    """Named agents along one river, their inflows as an `InflowProfile`, and optional withdrawals.

    The names are kept as a tuple of strings, non-empty and distinct.
    """

    __slots__ = _fields = ("names", "inflows", "withdrawals")

    def __init__(
        self,
        names: tuple[str, ...],
        inflows: InflowProfile,
        withdrawals: tuple[float, ...] | None = None,
    ):
        names = _as_tuple(names, DatasetError, "agent names must be a sequence of strings")
        inflows = as_profile(inflows)
        if len(names) != len(inflows):
            raise DimensionError(f"{len(names)} names for {len(inflows)} inflows")
        if set(map(type, names)) != {str} or not all(names) or len(set(names)) != len(names):
            _walk_names(names)
        if withdrawals is not None:
            # a total past the float range is allowed: only normalizing fails on it
            withdrawals, _ = _checked_floats(withdrawals, "withdrawal", DatasetError, True)
            if len(withdrawals) != len(inflows):
                raise DimensionError(f"{len(withdrawals)} withdrawals for {len(inflows)} inflows")
        _Record.__init__(self, names, inflows, withdrawals)

    def __len__(self) -> int:
        return len(self.inflows)

    @property
    def has_withdrawals(self) -> bool:
        return self.withdrawals is not None

    def normalized_withdrawals(self) -> ObservedAllocation:
        if self.withdrawals is None:
            raise DatasetError("dataset has no withdrawal column")
        return normalize_withdrawals(self.inflows, self.withdrawals)


def _walk_names(names: tuple) -> None:
    """Raise naming the first name that is not a string, or is empty or
    repeated."""
    seen = set()
    for k, name in enumerate(names):
        if not isinstance(name, str):
            raise DatasetError(f"agent name at position {k} must be a string, got {name!r}")
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
        inflow = _as_finite_float(row[1].strip(), DatasetError, "{}: inflow", where)
        withdrawal = None
        if width == 3:
            withdrawal = _as_finite_float(row[2].strip(), DatasetError, "{}: withdrawal", where)
        checked.append((where, name, inflow, withdrawal))
    return _build_dataset(checked)


def _reject_constant(text):
    raise DatasetError(f"non-finite JSON value {text!r} is not allowed")


def _decode_json(text):
    """`json.loads(text, parse_constant=_reject_constant)`, with the parse
    errors `json` leaves unworded made a DatasetError."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except (json.JSONDecodeError, DatasetError):
        raise
    except ValueError:  # int() refuses a literal of that many digits
        raise DatasetError(
            f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits,"
            " too large to represent as a float"
        ) from None
    except RecursionError:
        raise DatasetError("invalid JSON: arrays or objects nested too deeply") from None


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
    return _as_finite_float(value, DatasetError, "{}: {}", where, field)


def _dataset_format(format) -> str:
    """`format`, "csv" or "json" in any case and with any outer whitespace,
    as "csv" or "json"; anything else is a DatasetError naming it."""
    fmt = format.strip().casefold() if isinstance(format, str) else None
    if fmt not in ("csv", "json"):
        raise DatasetError(f"unknown dataset format {format!r}, expected csv or json")
    return fmt


def load_dataset(source: str | io.TextIOBase, format: str) -> BasinDataset:
    """Parse a dataset from text or a readable text stream.

    `format` is "csv" or "json".  Errors carry the offending line (CSV) or
    array index (JSON).  A stream that fails to read or decode, or that
    gives anything but text, is a DatasetError "cannot read the dataset
    stream: ..."; a source that is neither text nor a stream, or a format
    that is not a string, is a DatasetError too.
    """
    text = source
    if not isinstance(source, str):
        read = getattr(source, "read", None)
        if read is None:
            raise DatasetError(
                f"a dataset source must be text or a readable text stream, got {type(source).__name__}"
            )
        try:
            text = read()
        except (OSError, UnicodeDecodeError) as exc:  # the second is a ValueError
            raise DatasetError(f"cannot read the dataset stream: {exc}") from None
    if not isinstance(text, str):
        raise DatasetError(f"cannot read the dataset stream: it gives {type(text).__name__}, not text")
    if _dataset_format(format) == "csv":
        return _load_csv(text)
    return _load_json(text)


def read_dataset(path) -> BasinDataset:
    """Load a dataset file, inferring the format from the extension.  `path`
    is a str or an `os.PathLike` of one."""
    if isinstance(path, os.PathLike):
        path = os.fspath(path)
    if not isinstance(path, str):
        raise DatasetError(f"a dataset path must be a str or an os.PathLike of one, got {type(path).__name__}")
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
    except (OSError, UnicodeDecodeError) as exc:  # the second is a ValueError
        raise DatasetError(f"cannot read {path}: {exc}") from None
    return load_dataset(text, fmt)


def _csv_field(text: str) -> str:
    """`text` as one CSV field: in quotes, with each quote doubled, when it
    holds a comma, a quote or a line break, else as it is."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def dump_dataset(dataset: BasinDataset, format: str) -> str:
    """Serialize a dataset so that load_dataset round-trips it exactly.

    The CSV form writes numbers as their `repr` and quotes a name only when
    it holds a comma, a quote, "\n" or "\r" (`_csv_field`): the bytes of
    `csv.writer` with minimal quoting, except that a name holding "\r" is
    quoted, as the loader needs.  The loader strips the whitespace around
    each field, and Python 3.10's `csv` reads no NUL, quoted or not, so the
    CSV form refuses a name that starts or ends with whitespace or holds a
    NUL, naming it; the JSON form carries every name.
    """
    if not isinstance(dataset, BasinDataset):
        raise DatasetError(f"can only dump a BasinDataset, got {type(dataset).__name__}")
    if _dataset_format(format) == "csv":
        names = dataset.names
        if any(map(ne, names, map(str.strip, names))) or "\0" in "".join(names):
            name = next(name for name in names if name != name.strip() or "\0" in name)
            fault = "starts or ends with whitespace" if name != name.strip() else "holds a NUL"
            raise DatasetError(
                f"agent name {name!r} {fault}, which the CSV form"
                " does not keep; dump the dataset as JSON"
            )
        names = map(_csv_field, names)
        inflows = dataset.inflows.inflows
        if dataset.has_withdrawals:
            rows = [
                f"{name},{inflow!r},{withdrawal!r}\n"
                for name, inflow, withdrawal in zip(names, inflows, dataset.withdrawals)
            ]
            return "agent,inflow,withdrawal\n" + "".join(rows)
        rows = [f"{name},{inflow!r}\n" for name, inflow in zip(names, inflows)]
        return "agent,inflow\n" + "".join(rows)
    # the JSON form: the bytes of json.dumps({"agents": [...]}, indent=2), written
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
