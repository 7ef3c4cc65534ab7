"""Fair division of water rights along a linear river.

Allocation rules, executable fairness axioms with randomized checking,
least-squares fitting of rule families to observed withdrawals, and a
command line front end.

Importing the package loads its four modules, `core`, `axioms`, `analysis`
and `data_io`, and binds the public names below from them.
"""

from . import analysis, axioms, core, data_io

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    core: (
        "Allocation",
        "AllocationError",
        "DimensionError",
        "InflowProfile",
        "ObservedAllocation",
        "ParameterError",
        "RetentionShares",
        "RiverShareError",
        "RuleKind",
        "RuleSpec",
        "ValidationResult",
        "as_observed",
        "as_profile",
        "as_retention",
        "compromise",
        "egalitarian_full_transfer",
        "egalitarian_partial_transfer",
        "no_transfer",
        "partial_compromise",
        "retention_rule",
        "shapley",
        "source",
        "tolerance_for",
        "validate_allocation",
    ),
    axioms: (
        "Axiom",
        "AxiomReport",
        "Counterexample",
        "HypothesisNotMet",
        "find_counterexample",
        "run_axiom_suite",
    ),
    analysis: (
        "CaseStudyResult",
        "Family",
        "FitResult",
        "Legitimacy",
        "LegitimacyEntry",
        "LegitimacyReport",
        "ReferenceCheck",
        "distance_at",
        "family_member",
        "fit_family",
        "integrate_distance",
        "legitimacy_bounds",
        "nile_case_study",
        "shares_of_total",
    ),
    data_io: (
        "BasinDataset",
        "DatasetError",
        "builtin_nile",
        "dump_dataset",
        "load_dataset",
        "normalize_withdrawals",
        "read_dataset",
    ),
}
globals().update(
    {name: getattr(module, name) for module, names in _EXPORTS.items() for name in names}
)

__all__ = sorted(name for names in _EXPORTS.values() for name in names) + ["__version__"]
