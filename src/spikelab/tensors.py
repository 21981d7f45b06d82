"""Rank-one densification, contraction and overlap for order-k tensors on R^d.

A planted spike's factors live on ``models.ModelSpec``, which checks
them; ``rank1_densify`` takes them with the snr.

Tensors are stored as 1-d float64 arrays of length ``d**k`` in C order,
so ``entries[i_1 * d^{k-1} + .. + i_k]`` is the ``(i_1, .., i_k)``
entry and ``entries.reshape((d,) * k)`` is always a no-copy view.

A module-level entry budget guards against accidentally materializing
something enormous.  ``set_entry_budget`` adjusts it (the CLI exposes
this as ``--budget-entries``).  ``is_count`` (and ``check_count`` on
it), ``check_real``, ``check_snr``, ``check_even`` and ``unit`` are
input rules that every layer shares.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

DEFAULT_ENTRY_BUDGET = 10**8

_entry_budget = DEFAULT_ENTRY_BUDGET


def entry_budget() -> int:
    return _entry_budget


def set_entry_budget(budget: int) -> int:
    """Set the dense-entry allocation cap and return the previous one."""
    global _entry_budget
    prev = _entry_budget
    _entry_budget = check_count("entry budget", budget)
    return prev


def check_entry_budget(n_entries: int, what: str = "allocation") -> None:
    if n_entries > _entry_budget:
        raise MemoryError(
            f"{what} needs {n_entries} entries, over the budget of {_entry_budget}"
        )


def check_finite(data, name: str) -> None:
    """Raise ``ValueError`` when ``data`` holds a NaN or inf."""
    if not np.isfinite(data).all():
        raise ValueError(f"{name} holds a non-finite value")


def is_count(value, low: int = 1) -> bool:
    """Whether ``value`` is an ``int`` or numpy integer >= ``low``: not a
    bool, nor a float however close to whole, so nothing is truncated."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low


def check_count(name: str, value, low: int = 1) -> int:
    """``value`` as an ``int``; ``ValueError`` unless ``is_count(value, low)``.

    The ``int`` is a Python integer, so arithmetic on it never overflows.
    """
    if not is_count(value, low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def check_real(name: str, value) -> None:
    """``ValueError`` unless ``value`` is a real number (``numbers.Real``,
    so a numpy float counts) and not a bool; ranges are the caller's."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def check_snr(snr) -> None:
    """``ValueError`` unless ``snr`` is a finite real number >= 0."""
    check_real("snr", snr)
    if not (math.isfinite(snr) and snr >= 0):
        raise ValueError(f"snr must be finite and >= 0, got {snr}")


def check_even(what: str, k) -> None:
    """``ValueError`` unless the order ``k`` is even, as ``what`` needs."""
    if k % 2 != 0:
        raise ValueError(f"{what} needs even k, got {k}")


def unit(u: np.ndarray) -> tuple[np.ndarray, float]:
    """``(u / ||u||, ||u||)``; a zero or non-finite norm raises ``RuntimeError``.

    The one collapse check of the iterative extractors and the streaming
    templates: an iterate that reaches zero has lost its direction.  The
    norm is ``sqrt(flat @ flat)`` over ``u.ravel(order="K")``, the sum
    ``np.linalg.norm`` runs for a float64 ``u``.
    """
    flat = u.ravel(order="K")
    nrm = math.sqrt(flat @ flat)
    if nrm == 0.0 or not math.isfinite(nrm):
        raise RuntimeError("iterate collapsed to numerical zero")
    return u / nrm, nrm


def outer_product(vectors) -> np.ndarray:
    """Flat entries of ``v_1 x .. x v_k`` in C order, multiplied left to right."""
    out = np.asarray(vectors[0], dtype=np.float64)
    for v in vectors[1:]:
        out = np.multiply.outer(out, v)
    return out.reshape(-1)


def rank1_densify(factors, snr: float) -> np.ndarray:
    """Flat entries of ``snr * (v_1 x .. x v_k) / sqrt(d^k)``."""
    if not factors:
        raise ValueError("need at least one factor")
    k, d = len(factors), len(factors[0])
    check_entry_budget(d**k, f"order-{k} rank-one tensor on R^{d}")
    scale = snr / math.sqrt(float(d) ** k)
    return scale * outer_product(factors)


def outer_power(u: np.ndarray, power: int) -> np.ndarray:
    """Flat entries of ``u^{(x) power}``, length ``len(u)**power``."""
    check_count("power", power)
    u = np.asarray(u, dtype=np.float64)
    check_entry_budget(u.size**power, f"order-{power} outer power")
    return outer_product((u,) * power)


def contract_batch(batch: np.ndarray, dim: int, psi: np.ndarray) -> np.ndarray:
    """Contract an order-(k-1) template into the first k-1 slots of each row.

    ``batch`` has shape ``(n, d^k)``, one flat sample per row; returns
    shape ``(n, d)`` with ``result[r, i] = sum_J batch[r, (J, i)] psi[J]``
    over multi-indices J of length k-1.  ``psi`` may be flat (length
    ``d^{k-1}``) or cube-shaped.
    """
    batch = np.asarray(batch, dtype=np.float64)
    psi = np.asarray(psi, dtype=np.float64).reshape(-1)
    n = batch.shape[0]
    return np.tensordot(batch.reshape(n, psi.size, dim), psi, axes=([1], [0]))


def overlap(v: np.ndarray, vhat: np.ndarray) -> float:
    """Absolute normalized alignment ``|<v, vhat>| / (||v|| ||vhat||)``.

    Inputs are flattened first, so tensors of any shared shape work.
    Invariant under nonzero rescaling of either argument; always lands
    in [0, 1] (clipped against rounding spill just above 1).
    """
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    vhat = np.asarray(vhat, dtype=np.float64).reshape(-1)
    if v.shape != vhat.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs {vhat.shape}")
    nv = float(np.linalg.norm(v))
    nw = float(np.linalg.norm(vhat))
    if nv == 0.0 or nw == 0.0:
        raise ValueError("overlap undefined for a zero vector")
    return min(abs(float(np.dot(v, vhat))) / (nv * nw), 1.0)
