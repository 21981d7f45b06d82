"""Reference implementations the tests compare the library against.

Each one computes a quantity the library computes some faster way, in
the plainest form that states its contract; no verb, script or
benchmark runs them.
"""

import numpy as np

from spikelab.harness import MemoryBoundedAlgorithm, QuantizedIteration
from spikelab.tensors import contract_batch


def snap(q, values):
    """``q.decode(q.encode(values))`` on the lattice, from the codec
    contract: clamp to ``[-radius, radius]``, round ``(value + radius) /
    step`` half to even, cap the level at ``2^bits - 1``."""
    clamped = np.minimum(np.maximum(values, -q.radius), q.radius)
    levels = np.minimum(np.rint((clamped + q.radius) / q.step), 2.0**q.bits - 1.0)
    return levels * q.step - q.radius


def snap_loop(q, start, steps):
    """``start = snap(q, start + row)`` for each row of ``steps``."""
    for row in steps:
        start = snap(q, start + row)
    return start


def snap_sum(q, start, steps):
    """The values half of ``q._snap_block``, as an array; it must equal
    ``snap_loop`` bit for bit (``start`` itself for no rows)."""
    start = np.asarray(start, dtype=np.float64)
    return np.asarray(q._snap_block(start, np.asarray(steps, dtype=np.float64))[0])


class RowByRowIteration(QuantizedIteration):
    """``QuantizedIteration`` that re-encodes its partial sum after every
    row: the base class's ``update_block`` runs one ``update`` per row,
    the reference the block update must equal bit for bit."""

    update_block = MemoryBoundedAlgorithm.update_block

    def update(self, state, t, i, x):
        q, d = self.quantizer, self.d
        if t == 0 and i == 0:
            state = self.start_code
        values = q.decode(state, 2 * d)
        w = contract_batch(x[None, :], d, self.psi(values[:d]))[0]
        partial_bits = q.encode(values[d:] + w / self.n_samples)
        if i == self.n_samples - 1:
            # Pass boundary: the accumulated sum becomes the iterate and
            # the partial sum resets to the code for zero.
            return self._next_state(partial_bits, self.reset_code)
        return self._next_state(state[: self.state_bits // 2], partial_bits)


def row_by_row(algorithm: QuantizedIteration) -> RowByRowIteration:
    """``algorithm``'s codec, template, pass length and start code, run by
    ``RowByRowIteration``."""
    reference = object.__new__(RowByRowIteration)
    vars(reference).update(vars(algorithm))
    return reference
