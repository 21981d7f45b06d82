"""Estimation for spiked tensor models under memory and communication budgets.

The package is organized around a small set of layers:

``hermite``
    Hermite functions (the orthonormal Hermite polynomials), Gaussian
    quadrature, and weighted polynomial bases on [-1, 1].
``tensors``
    Rank-one spikes, contraction, overlap.
``measures``
    Scalar non-Gaussian measures that match Gaussian moments up to a
    chosen order (Gaussian mixtures and bounded likelihood-ratio tilts).
``models``
    Samplers for the planted tensor / component / correlation models and
    the reductions between them.
``estimators``
    Spectral and brute-force estimators with a shared reporting type.
``harness``
    Memory-bounded and blackboard execution models, the quantized
    iteration wrapper, and the reduction from one model to the other.
``verify``
    Exact combinatorial oracles and consistency checks.
``batchio`` / ``config`` / ``cli``
    Binary sample containers, experiment configuration, and the
    command-line driver.
"""

from spikelab.estimators import (
    BruteForceConfig,
    EstimateReport,
    PowerMethodConfig,
    brute_force_cca,
    brute_force_ngca,
    cca_matricization_estimator,
    mr_matricization_estimator,
    ngca_spectral,
    partial_trace_spectral,
    power_iteration,
    tensor_power_method,
)
from spikelab.harness import (
    Blackboard,
    BlackboardProtocol,
    MemoryBoundedAlgorithm,
    QuantizedIteration,
    QuantizerSpec,
    ResourceProfile,
    reduce_memory_to_distributed,
    run_distributed,
    run_memory_bounded,
)
from spikelab.hermite import (
    QuadratureRule,
    WeightedOrthoBasis,
    build_weighted_basis,
    gauss_hermite_rule,
    hermite_all,
    hermite_eval,
)
from spikelab.measures import (
    NonGaussMeasure,
    build_bounded_llr_measure,
    build_mog_measure,
    standard_gaussian,
)
from spikelab.models import (
    ModelSpec,
    SampleBatch,
    cca_critical_snr,
    reduce_cca_to_parity,
    reduce_ngca_to_glm,
    sample_atpca,
    sample_cca,
    sample_ngca,
    sample_tpca,
)
from spikelab.tensors import RankOneSpike, overlap
from spikelab.verify import (
    LDLRInstance,
    check_rademacher_bounds,
    integrated_hermite_norm,
    ldlr_norm_exact,
    rademacher_mean_moment,
)

__version__ = "0.1.0"

__all__ = [
    "Blackboard",
    "BlackboardProtocol",
    "BruteForceConfig",
    "EstimateReport",
    "LDLRInstance",
    "MemoryBoundedAlgorithm",
    "ModelSpec",
    "NonGaussMeasure",
    "PowerMethodConfig",
    "QuadratureRule",
    "QuantizedIteration",
    "QuantizerSpec",
    "RankOneSpike",
    "ResourceProfile",
    "SampleBatch",
    "WeightedOrthoBasis",
    "brute_force_cca",
    "brute_force_ngca",
    "build_bounded_llr_measure",
    "build_mog_measure",
    "build_weighted_basis",
    "cca_critical_snr",
    "cca_matricization_estimator",
    "check_rademacher_bounds",
    "gauss_hermite_rule",
    "hermite_all",
    "hermite_eval",
    "integrated_hermite_norm",
    "ldlr_norm_exact",
    "mr_matricization_estimator",
    "ngca_spectral",
    "overlap",
    "partial_trace_spectral",
    "power_iteration",
    "rademacher_mean_moment",
    "reduce_cca_to_parity",
    "reduce_memory_to_distributed",
    "reduce_ngca_to_glm",
    "run_distributed",
    "run_memory_bounded",
    "sample_atpca",
    "sample_cca",
    "sample_ngca",
    "sample_tpca",
    "standard_gaussian",
    "tensor_power_method",
]
