"""Command-line surface: allocate, axioms, fit, case-study.

Each subcommand returns its exit code, its run record and its text, and
`_main` prints exactly one of them: the text as plain tables (four decimal
places, or an exponent form with four decimals from magnitude 1e12 up), or
with `--json` the record as a single JSON document (full precision,
key-sorted, no timestamps, so identical invocations are byte-identical).
Exit codes: 0 on success, 1 on parse or validation errors, 2 when a
requested check fails (an allocation that fails validation, an axiom
violation, or a case-study reference outside tolerance).  A standard
output closed by its reader, as in `rivershare axioms ... | head -1`, is
an error too: one `error:` line on stderr and exit 1, with no traceback.

Each input is checked once, by the library function that takes it, so an
input error's text is that function's message.  The CLI checks only what
no library function knows about: the caps on `--trials` and
`--max-agents`, the range of `--curve-points`, and that exactly one of
`--inflows` and `--dataset` is given.

Importing this module loads the whole package, as `import rivershare`
does, so every subcommand starts with the same modules loaded.  Of the
standard library, `json` is loaded only by a `--json` run or a JSON
dataset, and `csv` only by a CSV dataset.

A process enters through `script`, which `python -m rivershare.cli` and the
`rivershare` script both call: it runs `main`, freezes the garbage
collector and exits with the code.  Frozen objects sit in the permanent
generation, which the full collections of interpreter shutdown skip, and
those collections were most of what a cold run spent after `main` returned.
Atexit handlers and the final flush still run, which `os._exit` would skip;
`gc.disable` would not help, since shutdown collects anyway.  `main` itself
leaves the collector alone, so an in-process caller keeps its own.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections.abc import Sequence

from . import __version__, analysis, axioms
from .core import (
    _RULE_GRAMMAR,
    InflowProfile,
    ParameterError,
    RiverShareError,
    parse_rule,
    validate_allocation,
)
from .data_io import BasinDataset, builtin_nile, read_dataset


#: Largest river `axioms` generates: its slowest check, order preservation, is O(n log n).
_MAX_AXIOM_AGENTS = 1000
#: Most samples `fit --curve` writes; the CSV is built in memory.
_MAX_CURVE_POINTS = 100_000
#: Most random instances `axioms` checks per axiom.
_MAX_TRIALS = 1_000_000


def _resolve_dataset(name: str) -> BasinDataset:
    if name.strip().casefold() == "nile":
        return builtin_nile()
    return read_dataset(name)


def _load_profile(args) -> tuple[InflowProfile, tuple[str, ...]]:
    if args.inflows is not None and args.dataset is not None:
        raise ParameterError("pass either --inflows or --dataset, not both")
    if args.inflows is not None:
        e = InflowProfile(args.inflows.split(","))
        return e, tuple(f"agent {i}" for i in range(len(e)))
    if args.dataset is not None:
        dataset = _resolve_dataset(args.dataset)
        return dataset.inflows, dataset.names
    raise ParameterError("one of --inflows or --dataset is required")


def run_record(command: str, inputs: dict, outputs: dict, seed: int | None = None) -> str:
    """Everything needed to replay one invocation, as key-sorted JSON text."""
    import json

    payload = {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "version": __version__,
        "seed": seed,
    }
    return json.dumps(payload, sort_keys=True, indent=2)


#: Magnitude from which table values are printed in exponent form: the
#: float spacing there is about 1e-4, so a fourth decimal carries nothing,
#: and a 1e300 basin would otherwise print 300-digit cells.
_FIXED_POINT_LIMIT = 1e12


def _fmt(value: float) -> str:
    if abs(value) >= _FIXED_POINT_LIMIT:
        return f"{value:.4e}"
    return f"{value:.4f}"


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    def render(cells):
        return "  ".join(cell.ljust(widths[k]) for k, cell in enumerate(cells)).rstrip()
    lines = [render(headers), render(["-" * w for w in widths])]
    lines.extend(render(row) for row in rows)
    return lines


# ---------------------------------------------------------------------------
# subcommands


def cmd_allocate(args) -> tuple:
    rule = parse_rule(args.rule)
    e, names = _load_profile(args)
    allocation = rule.apply(e)
    verdict = validate_allocation(e, allocation, tol=args.tolerance)
    inputs = {
        "rule": rule.label(),
        "inflows": list(e),
        "agents": list(names),
        "dataset": args.dataset,
        "tolerance": args.tolerance,
    }
    outputs = {
        "allocation": list(allocation),
        "total": allocation.total,
        "valid": verdict.ok,
    }
    rows = [
        [names[i], _fmt(e[i]), _fmt(allocation[i])]
        for i in range(len(e))
    ]
    rows.append(["total", _fmt(e.total), _fmt(allocation.total)])
    lines = [f"rule: {rule.label()}"]
    lines.extend(_table(["agent", "inflow", "allocation"], rows))
    if not verdict:
        lines.append(f"VALIDATION FAILED: {verdict.reason}")
    return (0 if verdict else 2), inputs, outputs, None, lines


def _parse_axiom_list(text: str) -> tuple[axioms.Axiom, ...]:
    if text.strip().casefold() == "all":
        return tuple(axioms.Axiom)
    chosen = []
    for token in text.split(","):
        name = token.strip().casefold()
        try:
            chosen.append(axioms.Axiom(name))
        except ValueError:
            legal = ", ".join(a.value for a in axioms.Axiom)
            raise ParameterError(f"unknown axiom {token.strip()!r}, expected all or any of: {legal}") from None
    return tuple(chosen)


def cmd_axioms(args) -> tuple:
    rule = parse_rule(args.rule)
    chosen = _parse_axiom_list(args.axioms)
    if args.trials > _MAX_TRIALS:
        raise ParameterError(f"--trials must be at most {_MAX_TRIALS}, got {args.trials}")
    if args.max_agents > _MAX_AXIOM_AGENTS:
        raise ParameterError(f"--max-agents must be at most {_MAX_AXIOM_AGENTS}, got {args.max_agents}")
    reports = axioms.run_axiom_suite(
        rule,
        axioms=chosen,
        trials=args.trials,
        seed=args.seed,
        n_range=(args.min_agents, args.max_agents),
        tol=args.tolerance,
    )
    violations = sum(r.violations for r in reports)
    inputs = {
        "rule": rule.label(),
        "axioms": [a.value for a in chosen],
        "trials": args.trials,
        "agents": [args.min_agents, args.max_agents],
        "tolerance": args.tolerance,
    }
    outputs = {
        "reports": [r.to_dict() for r in reports],
        "violations": violations,
        "passed": violations == 0,
    }
    lines = [f"rule: {rule.label()}  trials: {args.trials}  seed: {args.seed}"]
    for report in reports:
        status = "pass" if report.passed else f"FAIL ({report.violations} violations)"
        lines.append(f"  {report.axiom.value}: {status}")
        if report.first_counterexample is not None:
            ce = report.first_counterexample
            for key, value in ce.inputs:
                lines.append(f"    {key}: {value}")
            for label, allocation in ce.allocations:
                lines.append(f"    {label}: {tuple(_fmt(v) for v in allocation)}")
            lines.append(f"    {ce.violation}")
    return (0 if violations == 0 else 2), inputs, outputs, args.seed, lines


def _write_curve(path: str, e, z, family: analysis.Family, points: int) -> None:
    lines = ["parameter,distance"]
    for k in range(points):
        t = k / (points - 1)
        lines.append(f"{t!r},{analysis.distance_at(e, z, family, t)!r}")
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ParameterError(f"cannot write curve to {path}: {exc}") from None


def cmd_fit(args) -> tuple:
    family = analysis.as_family(args.family)
    if args.curve is not None and not 2 <= args.curve_points <= _MAX_CURVE_POINTS:
        raise ParameterError(
            f"--curve-points must lie in [2, {_MAX_CURVE_POINTS}], got {args.curve_points}"
        )
    dataset = _resolve_dataset(args.dataset)
    e = dataset.inflows
    z = dataset.normalized_withdrawals()
    # first: the one call that checks --tolerance, so a bad value runs no fit or quadrature
    legitimacy = analysis.legitimacy_bounds(e, z, family, names=dataset.names, tol=args.tolerance)
    fit = analysis.fit_family(e, z, family)
    integral = analysis.integrate_distance(e, z, family, nodes=args.nodes)
    if args.curve is not None:
        _write_curve(args.curve, e, z, family, args.curve_points)
    inputs = {
        "dataset": args.dataset,
        "family": family.value,
        "nodes": args.nodes,
        "tolerance": args.tolerance,
        "curve": args.curve,
        "curve_points": args.curve_points if args.curve is not None else None,
    }
    outputs = {
        "fit": fit.to_dict(),
        "integral": integral,
        "legitimacy": legitimacy.to_dict(),
        "observed": list(z),
    }
    lines = [
        f"family: {family.value}",
        f"parameter: {_fmt(fit.parameter_star)}"
        + (f" (clipped from {_fmt(fit.unconstrained_parameter)})" if fit.clipped else ""),
        f"residual distance: {_fmt(fit.residual_distance)}",
        f"distance integral: {_fmt(integral)}",
    ]
    if fit.degenerate:
        lines.append("family is degenerate: both endpoints coincide")
    rows = [
        [
            entry.agent,
            _fmt(entry.observed),
            _fmt(fit.fitted_allocation[entry.position]),
            _fmt(entry.lower),
            _fmt(entry.upper),
            entry.classification.value,
        ]
        for entry in legitimacy.entries
    ]
    lines.extend(_table(["agent", "observed", "fitted", "lower", "upper", "status"], rows))
    if args.curve is not None:
        lines.append(f"distance curve written to {args.curve}")
    return 0, inputs, outputs, None, lines


def cmd_case_study(args) -> tuple:
    decimals = None if args.full_precision else args.decimals
    result = analysis.nile_case_study(reporting_decimals=decimals, nodes=args.nodes)
    lines = ["Nile basin allocation study", ""]
    headers = ["agent"] + [label for label, _ in result.table]
    rows = []
    for i, name in enumerate(result.names):
        rows.append([name] + [_fmt(column[i]) for _, column in result.table])
    lines.extend(_table(headers, rows))
    lines.append("")
    fit = result.compromise_fit
    lines.append(
        f"compromise fit: parameter {_fmt(fit.parameter_star)}, "
        f"allocation {tuple(_fmt(v) for v in fit.fitted_allocation)}"
    )
    pfit = result.partial_fit
    lines.append(
        f"partial fit: parameter {_fmt(pfit.parameter_star)}"
        + (f" (clipped from {_fmt(pfit.unconstrained_parameter)})" if pfit.clipped else "")
    )
    lines.append(
        f"distance integrals: compromise {_fmt(result.compromise_integral)}, "
        f"partial {_fmt(result.partial_integral)}"
    )
    for family, report in (
        ("compromise", result.compromise_legitimacy),
        ("partial", result.partial_legitimacy),
    ):
        verdicts = ", ".join(f"{e.agent}: {e.classification.value}" for e in report.entries)
        lines.append(f"legitimacy ({family}): {verdicts}")
    shares = ", ".join(
        f"{name} {100 * share:.1f}%" for name, share in zip(result.names, result.observed_shares)
    )
    lines.append(f"observed shares: {shares}")
    lines.append("")
    if result.all_ok:
        lines.append(f"all {len(result.checks)} reference checks passed")
    else:
        for check in result.failures:
            lines.append(
                f"REFERENCE CHECK FAILED {check.name}: expected {check.expected}"
                + (f" within {check.tolerance}" if check.tolerance is not None else "")
                + f", got {check.actual}"
            )
    inputs = {"reporting_decimals": decimals, "nodes": args.nodes}
    return (0 if result.all_ok else 2), inputs, result.to_dict(), None, lines


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error:` line and exit code 1.

    Subcommand parsers are built from the same class, so this holds for
    every subcommand too.
    """

    def error(self, message):
        self.exit(1, f"error: {message}\n")

    def _print_message(self, message, file=None):
        # argparse drops a failed write; let a closed stdout under --help or
        # --version reach `main` as the BrokenPipeError it is
        if message:
            (file or sys.stderr).write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rivershare",
        description="Fair allocation of river water along a line of agents.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub, tolerance=True):
        sub.add_argument("--json", action="store_true", help="emit a JSON run record instead of tables")
        if tolerance:
            sub.add_argument(
                "--tolerance",
                type=float,
                default=None,
                help="override the default comparison tolerance",
            )

    allocate = commands.add_parser("allocate", help="compute one rule's allocation")
    allocate.add_argument("--rule", required=True, help=f"rule spec: {_RULE_GRAMMAR}")
    allocate.add_argument("--inflows", help="comma-separated inflows, upstream first")
    allocate.add_argument("--dataset", help="'nile' or a path to a .csv/.json dataset")
    common(allocate)
    allocate.set_defaults(handler=cmd_allocate)

    suite = commands.add_parser("axioms", help="randomized axiom verification for a rule")
    suite.add_argument("--rule", required=True, help=f"rule spec: {_RULE_GRAMMAR}")
    suite.add_argument(
        "--axioms",
        default="all",
        help="comma-separated axiom names, or 'all'",
    )
    suite.add_argument("--trials", type=int, default=1000, help="random instances per axiom")
    suite.add_argument("--seed", type=int, default=0, help="base seed for the trial generator")
    suite.add_argument("--min-agents", type=int, default=2)
    suite.add_argument("--max-agents", type=int, default=10)
    common(suite)
    suite.set_defaults(handler=cmd_axioms)

    fit = commands.add_parser("fit", help="fit a rule family to observed withdrawals")
    fit.add_argument("--dataset", required=True, help="'nile' or a path to a dataset with withdrawals")
    fit.add_argument("--family", required=True, help="compromise or partial")
    fit.add_argument(
        "--nodes",
        type=int,
        help="integrate with this many Gauss-Legendre nodes instead of the exact closed form",
    )
    fit.add_argument("--curve", help="write the distance profile to this CSV path")
    fit.add_argument("--curve-points", type=int, default=101, help="samples in the curve CSV")
    common(fit)
    fit.set_defaults(handler=cmd_fit)

    case = commands.add_parser("case-study", help="run the embedded Nile analysis end to end")
    case.add_argument("--decimals", type=int, default=1, help="reporting precision for the observed column")
    case.add_argument(
        "--full-precision",
        action="store_true",
        help="skip the reporting-precision rounding of the observed column",
    )
    case.add_argument(
        "--nodes",
        type=int,
        default=64,
        help="half the Gauss-Legendre nodes of the quadrature cross-check of the exact integrals",
    )
    # each reference check has its own stated tolerance
    common(case, tolerance=False)
    case.set_defaults(handler=cmd_case_study)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # a closed stdout shows up here, not at exit
    except BrokenPipeError:
        # the reader has gone: send what is left nowhere, so that the
        # interpreter's own flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed", file=sys.stderr)
        return 1
    return code


def _main(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        code, inputs, outputs, seed, lines = args.handler(args)
    except RiverShareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(run_record(args.command, inputs, outputs, seed) if args.json else "\n".join(lines))
    return code


def script():
    """Run `main` on `sys.argv` and exit the process with its code."""
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    script()
