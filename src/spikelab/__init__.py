"""Estimation for spiked tensor models under memory and communication budgets.

The package is organized around a small set of layers:

``hermite``
    Hermite functions (the orthonormal Hermite polynomials), Gaussian
    quadrature, and weighted polynomial bases on [-1, 1].
``tensors``
    Rank-one densification of a spike's factors, contraction, overlap.
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
``detection``
    Fixed detection legs shared by calibration and acceptance.
``batchio`` / ``config`` / ``cli``
    Binary sample containers, experiment configuration, and the
    command-line driver.

The package exports nothing itself: import each module by its own name,
as in ``from spikelab.harness import replay``.
"""
