"""Tail bounds for sample means of exchangeable [0,1]-valued variables.

The sample mean of a bounded exchangeable sequence concentrates, not
around the distribution mean, but inside the interval spanned by the
smallest and largest component means of the mixture representation of
its law.  This package provides the closed-form bounds, exact tail
oracles for verifiable model families, a reproducible Monte Carlo
harness, and a CLI that sweeps models against the bounds.

Public names load lazily (PEP 562): a name's module is imported the first
time the name is read.  The closed forms and their errors (``bounds``,
``errors``) need only the standard library; numpy loads the first time a
model, oracle, sampler, Monte Carlo or suite name is used.  scipy.special
loads at the first special-function call (``_special``), such as a
parameter density's support check or a Clopper-Pearson interval, not when
a name is first read: a replay or a Beta or lattice histogram makes none.
"""

import importlib

__version__ = "0.1.0"

# each submodule with the public names it defines
_EXPORTS = {
    "bounds": (
        "BoundReport",
        "RangeBounds",
        "Side",
        "TailQuery",
        "big_g",
        "big_h",
        "chernoff_curve",
        "hoeffding_tail_bound",
        "kl_form_bound",
        "little_g",
        "mgf_convexity_bound",
        "optimal_h",
        "t_for_confidence",
        "tail_bound_report",
    ),
    "errors": (
        "DomainError",
        "EmptyGrid",
        "ExchboundError",
        "InvalidDelta",
        "InvalidH",
        "InvalidModel",
        "InvalidT",
        "KTooLarge",
        "MeanOutOfRange",
        "MTooLarge",
        "OutOfValidityRange",
        "UnsupportedModel",
    ),
    "model": (
        "Bernoulli",
        "Beta",
        "BernoulliParamMixture",
        "Component",
        "DiscreteOnUnit",
        "FiniteMixture",
        "JointLaw",
        "MixingMeasure",
        "ModelSummary",
        "PointMass",
        "TruncatedBetaDensity",
        "UniformDensity",
        "flip_model",
        "joint_law",
        "summarize",
    ),
    "montecarlo": (
        "HistogramResult",
        "SweepResult",
        "SweepRow",
        "TailEstimate",
        "clopper_pearson_interval",
        "estimate_tail",
        "run_sweep",
        "sample_mean_histogram",
    ),
    "oracle": (
        "ExactTail",
        "TailMethod",
        "exact_sum_tail",
        "exact_tail",
    ),
    "sampler": (
        "SampleBatch",
        "SeedSpec",
        "derive_stream",
        "sample_sequence",
    ),
    "suite": (
        "standard_suite",
        "suite_model",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name: str):
    """Import the module that defines ``name``, or the submodule ``name``."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
