"""Dataset ingestion and the embedded Nile basin case-study data.

Datasets arrive as CSV (header ``agent,inflow[,withdrawal]``) or JSON (an
object with an ``agents`` array of ``{name, inflow, withdrawal?}``), rows
ordered upstream to downstream.  Row order is river order; there is no
reordering key.

A loader hands the columns straight to the constructors, whose checks
run in bulk, in C builtins: `BasinDataset` checks that the names are
non-empty and distinct, and its withdrawals and `InflowProfile`'s inflows
pass the package's one float-vector check (every entry a finite number
>= 0; for the inflows, a finite total too).  Input they reject is walked:
the loader checks its format, then the constructors' own walks word the
error, given each entry's line (CSV) or array index (JSON).  The first
fault is reported, in this order: the format, row by row; under two
agents; withdrawals for some agents only; names; inflows; withdrawals,
where in a column the first entry upstream that is not a finite number
comes before the first negative one.  A number outside the float range is
an error too: a JSON integer too large to convert, a JSON integer longer
than Python converts at all, or withdrawals whose total overflows when
they are normalized.

`csv` and `json` are imported by the functions that use them, so a
command that reads no dataset file and prints no JSON loads neither.
"""

from __future__ import annotations

import io
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
    _as_tuple,
    _checked_floats,
    _Record,
    _walk_floats,
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
        _check_names(names, DatasetError)
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
        # the constructor checked the withdrawals; only their total is new
        try:
            total = math.fsum(self.withdrawals)
        except OverflowError:
            total = math.inf
        return _scaled_withdrawals(self.inflows, self.withdrawals, total)


def _check_names(names: tuple, error: type) -> None:
    """The one check of agent names, `BasinDataset`'s and
    `analysis.legitimacy_bounds`'s: each a non-empty str, none repeated.
    Valid names pass in bulk, in C builtins; only others are walked."""
    if set(map(type, names)) != {str} or not all(names) or len(set(names)) != len(names):
        _walk_names(names, error)


def _walk_names(names: tuple, error: type, where: tuple[str, ...] | None = None) -> None:
    """Raise `error` naming the first name that is not a string, or is
    empty or repeated; by its location in `where`, one per name, if given."""
    seen = {}  # name: the index of its first use
    for k, name in enumerate(names):
        at = "" if where is None else f"{where[k]}: "
        if not isinstance(name, str):
            subject = f"agent name at position {k}" if where is None else f"{at}agent name"
            raise error(f"{subject} must be a string, got {name!r}")
        if not name:
            raise error("agent names must be non-empty" if where is None else f"{at}agent name must be non-empty")
        if name in seen:
            first = "" if where is None else f" (first at {where[seen[name]]})"
            raise error(f"{at}duplicate agent name {name!r}{first}")
        seen[name] = k


def normalize_withdrawals(e, withdrawals) -> ObservedAllocation:
    """Rescale withdrawals proportionally so they sum to the total inflow.

    Idempotent: vectors already summing to the total inflow pass through
    with a scaling factor of one (up to float rounding).
    """
    e = as_profile(e)
    values, total = _checked_floats(withdrawals, "withdrawal", DatasetError, False)
    if len(values) != len(e):
        raise DimensionError(f"{len(values)} withdrawals for {len(e)} inflows")
    return _scaled_withdrawals(e, values, total)


def _scaled_withdrawals(e: InflowProfile, values: tuple[float, ...], total: float) -> ObservedAllocation:
    """Checked withdrawals `values`, of fsum `total` (inf past the float
    range), rescaled to `e`'s total inflow.  The product is checked once,
    as an `ObservedAllocation`."""
    if total == math.inf:
        raise DatasetError("withdrawal total is too large to represent as a float")
    if not total > 0.0:
        raise DatasetError(f"withdrawals must have a positive total, got {total}")
    factor = e.total / total
    return ObservedAllocation(tuple(map(mul, values, repeat(factor))))


# ---------------------------------------------------------------------------
# parsing


def _located_dataset(rows: list[tuple]) -> BasinDataset:
    """The dataset of format-checked `rows`, each (location, name, inflow,
    withdrawal or None), or its first fault in the module docstring's order."""
    if len(rows) < 2:
        raise DatasetError(f"a dataset needs at least two agents, got {len(rows)}")
    where, names, inflows, withdrawals = zip(*rows)
    if None in withdrawals:
        if withdrawals.count(None) < len(rows):
            missing = where[withdrawals.index(None)]
            raise DatasetError(f"{missing}: withdrawal missing; provide the column for every agent or none")
        withdrawals = None
    _walk_names(names, DatasetError, where)
    inflows = _walk_floats(inflows, "inflow", DatasetError, True, where)
    if withdrawals is not None:
        withdrawals = _walk_floats(withdrawals, "withdrawal", DatasetError, True, where)
    # of what the walks pass, the constructors refuse only a total inflow past the float range
    return BasinDataset(names, InflowProfile(inflows), withdrawals)


def _columns_dataset(names, inflows, withdrawals) -> BasinDataset | None:
    """The dataset of these columns, of equal length, or None when a
    constructor rejects them, so that the loader walks them."""
    try:
        return BasinDataset(names, InflowProfile(inflows), withdrawals)
    except RiverShareError:
        return None


def _load_csv(text: str) -> BasinDataset:
    import csv

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
    """The format check of CSV rows below the header: blank lines are
    skipped, and each other needs `width` fields."""
    located = []
    for line_no, row in enumerate(rows, start=2):
        cells = [cell.strip() for cell in row]
        if not any(cells):
            continue  # ignore blank lines
        if len(cells) != width:
            raise DatasetError(f"line {line_no}: expected {width} fields, got {len(cells)}")
        located.append((f"line {line_no}", cells[0], cells[1], cells[2] if width == 3 else None))
    return _located_dataset(located)


def _reject_constant(text):
    raise DatasetError(f"non-finite JSON value {text!r} is not allowed")


def _load_json(text: str) -> BasinDataset:
    import json

    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"invalid JSON: {exc}") from None
    except DatasetError:
        raise
    except ValueError:  # int() refuses a literal of that many digits
        raise DatasetError(
            f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits,"
            " too large to represent as a float"
        ) from None
    except RecursionError:
        raise DatasetError("invalid JSON: arrays or objects nested too deeply") from None
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
    if not all(set(map(type, column)) <= _NUMBER_TYPES for column in (inflows, *withdrawals)):
        return None  # `BasinDataset` checks the names
    return _columns_dataset(names, inflows, withdrawals[0] if withdrawals else None)


def _walk_json(agents: list) -> BasinDataset:
    """The format check of the 'agents' array: each entry an object with no
    unknown field and an 'inflow', whose numbers are `_NUMBER_TYPES`."""
    located = []
    for k, entry in enumerate(agents):
        where = f"agents[{k}]"
        if not isinstance(entry, dict):
            raise DatasetError(f"{where}: each agent must be an object")
        unknown = set(entry).difference(_FIELDS)
        if unknown:
            raise DatasetError(f"{where}: unknown field {sorted(unknown)[0]!r}")
        if "inflow" not in entry:
            raise DatasetError(f"{where}: 'inflow' is required")
        for field in _FIELDS[1:]:
            if field in entry and type(entry[field]) not in _NUMBER_TYPES:
                raise DatasetError(f"{where}: {field} must be a number, got {entry[field]!r}")
        located.append((where, entry.get("name"), entry["inflow"], entry.get("withdrawal")))
    return _located_dataset(located)


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
    fmt = os.path.splitext(path)[1].casefold()[1:]
    if fmt not in ("csv", "json"):
        raise DatasetError(f"cannot infer format from {os.path.basename(path)!r}; use a .csv or .json file")
    try:
        with open(path, encoding="utf-8-sig") as handle:
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
    from json.encoder import encode_basestring_ascii as quote

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
