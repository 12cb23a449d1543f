"""Exact information-leakage measures and the bounds they certify.

Everything operates on explicit finite distributions: channels are
row-stochastic matrices, all measures are computed in closed form (no
estimation), and every probabilistic claim ships with a Monte Carlo
experiment or a brute-force oracle that checks it.

Each export below is listed once, under the module that defines it, whose
``__all__`` is that entry. The module is imported on the first access to
one of its names (PEP 562), so ``import leakage_lab`` loads no numpy and
the closed-form bounds never do.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": (
        "BoundReport", "P_VALUE_NOTE", "adaptive_event_bound", "adjusted_significance",
        "compare_sensitivity_bounds", "dp_sensitivity_reference_bound", "dwork_dp_bound",
        "exact_event_probability", "fdr_bound", "gen_error_bound",
        "gen_error_bound_sensitivity", "mcdiarmid_tail", "mi_gen_bound", "sample_complexity",
    ),
    "core": (
        "Alphabet", "Channel", "DiscreteDistribution", "EventMask", "JointDistribution",
        "NORMALIZATION_TOL", "ProductAlphabet", "adaptive_channel", "compose_channels",
        "enumeration_cap", "fiber_max_prob", "iid_prior", "joint_from",
    ),
    "errors": (
        "AlphabetMismatch", "BetaOutOfRange", "CapExceeded", "DenominatorNonPositive",
        "EmptySupport", "Infeasible", "InputNotProduct", "LeakageLabError", "NegativeEpsilon",
        "NegativeMass", "NoFeasibleSet", "NonPositiveSensitivity", "NotNormalized",
    ),
    "ledger": (
        "LeakageLedger", "LedgerEntry", "cardinality_bound", "compose", "dp_to_leakage",
        "leakage_to_approx_maxinfo", "maxinfo_to_leakage",
    ),
    "measures": (
        "LeakageValue", "approx_max_divergence", "approx_max_information",
        "approx_max_information_by_enumeration", "conditional_maximal_leakage", "empirical_dp",
        "max_information", "maximal_leakage", "maximal_leakage_of_joint", "mutual_information",
        "renyi_inf_divergence",
    ),
    "simulate": (
        "GenErrConfig", "HypTestConfig", "LearnerSpec", "data_alphabet", "derive_trial_seed",
        "generalization_event", "learner_channel", "run_gen_error_experiment",
        "run_hyptest_experiment",
    ),
    "verify": ("run_suites",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
