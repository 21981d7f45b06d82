"""Self-describing binary container for sample batches.

Layout version 1 (documented in docs/formats.md): a fixed 52-byte
little-endian header

    magic "SPKB" | u32 version | u32 problem | u32 k | u32 d
    | u64 n | f64 snr | u64 seed | u32 flags | u32 reserved

followed by the ``n * row_length`` float64 data payload; the flags
must be 0.  The header carries exactly the scalar instance description;
planted spikes and measure payloads are not serialized, so a loaded
batch scores no overlap but replays bit-identically through any
estimator.
"""

from __future__ import annotations

import struct

import numpy as np

from spikelab.models import ModelSpec, SampleBatch

MAGIC = b"SPKB"
LAYOUT_VERSION = 1
_HEADER = struct.Struct("<4sIIIIQdQII")

# One code per problem of ``models.SAMPLERS``.  Codes 5 and 6 marked
# labelled containers (docs/formats.md): a new problem must not reuse them.
_PROBLEM_CODES = {
    "tpca": 1,
    "atpca": 2,
    "ngca": 3,
    "cca": 4,
}
_CODE_PROBLEMS = {code: name for name, code in _PROBLEM_CODES.items()}


def batch_to_bytes(batch: SampleBatch) -> bytes:
    spec = batch.spec
    if not 0 <= batch.seed < 2**64:
        raise ValueError(f"seed {batch.seed} does not fit an unsigned 64-bit field")
    header = _HEADER.pack(
        MAGIC,
        LAYOUT_VERSION,
        _PROBLEM_CODES[spec.problem],
        spec.k,
        spec.d,
        batch.n,
        spec.snr,
        batch.seed,
        0,
        0,
    )
    return header + np.ascontiguousarray(batch.data, dtype="<f8").tobytes()


def batch_from_bytes(buf: bytes) -> SampleBatch:
    if len(buf) < _HEADER.size:
        raise ValueError("container shorter than its header")
    magic, version, code, k, d, n, snr, seed, flags, reserved = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != LAYOUT_VERSION:
        raise ValueError(f"unsupported layout version {version}")
    if code not in _CODE_PROBLEMS:
        raise ValueError(f"unknown problem code {code}")
    if flags or reserved:
        raise ValueError(f"unknown flags {flags:#x} or nonzero reserved field {reserved:#x}")
    spec = ModelSpec(problem=_CODE_PROBLEMS[code], k=k, d=d, snr=snr)
    if spec.problem in ("tpca", "atpca") and d > 1 and k >= 64:  # refused before d**k is taken
        raise ValueError(
            f"container holds {len(buf)} bytes, layout implies rows of {d}^{k} entries"
        )
    row_length = spec.row_length
    expect = _HEADER.size + 8 * n * row_length
    if len(buf) != expect:
        raise ValueError(
            f"container holds {len(buf)} bytes, layout implies {expect}"
        )
    data = np.frombuffer(buf, dtype="<f8", count=n * row_length, offset=_HEADER.size)
    return SampleBatch(
        spec=spec,
        data=data.reshape(n, row_length),
        seed=seed,
        meta={"layout_version": version},
    )


def dump_batch(batch: SampleBatch, path) -> None:
    with open(path, "wb") as fh:
        fh.write(batch_to_bytes(batch))


def load_batch(path) -> SampleBatch:
    with open(path, "rb") as fh:
        return batch_from_bytes(fh.read())
