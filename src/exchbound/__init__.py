"""Tail bounds for sample means of exchangeable [0,1]-valued variables.

The sample mean of a bounded exchangeable sequence concentrates, not
around the distribution mean, but inside the interval spanned by the
smallest and largest component means of the mixture representation of
its law.  This package provides the closed-form bounds, exact tail
oracles for verifiable model families, a reproducible Monte Carlo
harness, and a CLI that sweeps models against the bounds.
"""

from .bounds import (
    BoundReport,
    RangeBounds,
    Side,
    TailQuery,
    big_g,
    big_h,
    chernoff_curve,
    hoeffding_tail_bound,
    kl_form_bound,
    little_g,
    lower_tail_bound_by_flip,
    mgf_convexity_bound,
    optimal_h,
    t_for_confidence,
    tail_bound_report,
)
from .errors import (
    DomainError,
    EmptyGrid,
    ExchboundError,
    InvalidDelta,
    InvalidH,
    InvalidModel,
    InvalidT,
    KTooLarge,
    MeanOutOfRange,
    MTooLarge,
    OutOfValidityRange,
    UnsupportedModel,
)
from .model import (
    Bernoulli,
    Beta,
    BernoulliParamMixture,
    Component,
    DiscreteOnUnit,
    FiniteMixture,
    JointLaw,
    MixingMeasure,
    ModelSummary,
    PointMass,
    TruncatedBetaDensity,
    UniformDensity,
    component_mean,
    flip_model,
    joint_law,
    summarize,
)
from .montecarlo import (
    HistogramResult,
    SweepResult,
    SweepRow,
    TailEstimate,
    clopper_pearson_interval,
    estimate_tail,
    run_sweep,
    sample_mean_histogram,
)
from .oracle import ExactTail, TailMethod, exact_sum_tail, exact_tail
from .sampler import SampleBatch, SeedSpec, derive_stream, sample_sequence
from .suite import standard_suite, suite_model

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
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
    "component_mean",
    "joint_law",
    "summarize",
    # bounds
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
    "lower_tail_bound_by_flip",
    "mgf_convexity_bound",
    "optimal_h",
    "t_for_confidence",
    "tail_bound_report",
    # oracle
    "ExactTail",
    "TailMethod",
    "exact_sum_tail",
    "exact_tail",
    "flip_model",
    # sampler
    "SampleBatch",
    "SeedSpec",
    "derive_stream",
    "sample_sequence",
    # montecarlo
    "HistogramResult",
    "SweepResult",
    "SweepRow",
    "TailEstimate",
    "clopper_pearson_interval",
    "estimate_tail",
    "run_sweep",
    "sample_mean_histogram",
    # suite
    "standard_suite",
    "suite_model",
    # errors
    "ExchboundError",
    "InvalidModel",
    "UnsupportedModel",
    "KTooLarge",
    "MTooLarge",
    "DomainError",
    "InvalidT",
    "InvalidH",
    "InvalidDelta",
    "MeanOutOfRange",
    "OutOfValidityRange",
    "EmptyGrid",
]
