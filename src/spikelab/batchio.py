"""Self-describing binary container for sample batches.

Layout version 1 (documented in docs/formats.md): a fixed 52-byte
little-endian header

    magic "SPKB" | u32 version | u32 problem | u32 k | u32 d
    | u64 n | f64 snr | u64 seed | u32 flags | u32 reserved

followed by the ``n * row_length`` float64 data payload and, when flag
bit 0 is set, one float64 label per row.  The header carries exactly
the scalar instance description; planted spikes and measure payloads
are not serialized, so a loaded batch scores no overlap but replays
bit-identically through any estimator.
"""

from __future__ import annotations

import struct

import numpy as np

from spikelab.models import ModelSpec, SampleBatch

MAGIC = b"SPKB"
LAYOUT_VERSION = 1
_HEADER = struct.Struct("<4sIIIIQdQII")
_FLAG_LABELS = 1

_PROBLEM_CODES = {
    "tpca": 1,
    "atpca": 2,
    "ngca": 3,
    "cca": 4,
    "glm": 5,
    "parity": 6,
}
_CODE_PROBLEMS = {code: name for name, code in _PROBLEM_CODES.items()}


def batch_to_bytes(batch: SampleBatch) -> bytes:
    spec = batch.spec
    if spec.problem not in _PROBLEM_CODES:
        raise ValueError(f"no container code for problem {spec.problem!r}")
    if not 0 <= batch.seed < 2**64:
        raise ValueError(f"seed {batch.seed} does not fit an unsigned 64-bit field")
    flags = _FLAG_LABELS if batch.labels is not None else 0
    header = _HEADER.pack(
        MAGIC,
        LAYOUT_VERSION,
        _PROBLEM_CODES[spec.problem],
        spec.k,
        spec.d,
        batch.n,
        spec.snr,
        batch.seed,
        flags,
        0,
    )
    parts = [header, np.ascontiguousarray(batch.data, dtype="<f8").tobytes()]
    if batch.labels is not None:
        parts.append(np.ascontiguousarray(batch.labels, dtype="<f8").tobytes())
    return b"".join(parts)


def batch_from_bytes(buf: bytes) -> SampleBatch:
    if len(buf) < _HEADER.size:
        raise ValueError("container shorter than its header")
    magic, version, code, k, d, n, snr, seed, flags, _ = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != LAYOUT_VERSION:
        raise ValueError(f"unsupported layout version {version}")
    if code not in _CODE_PROBLEMS:
        raise ValueError(f"unknown problem code {code}")
    spec = ModelSpec(problem=_CODE_PROBLEMS[code], k=k, d=d, snr=snr)
    row_length = spec.row_length
    expect = _HEADER.size + 8 * n * row_length
    has_labels = bool(flags & _FLAG_LABELS)
    if has_labels:
        expect += 8 * n
    if len(buf) != expect:
        raise ValueError(
            f"container holds {len(buf)} bytes, layout implies {expect}"
        )
    offset = _HEADER.size
    data = np.frombuffer(buf, dtype="<f8", count=n * row_length, offset=offset)
    data = data.reshape(n, row_length)
    labels = None
    if has_labels:
        labels = np.frombuffer(
            buf, dtype="<f8", count=n, offset=offset + 8 * n * row_length
        )
    return SampleBatch(
        spec=spec,
        data=data,
        seed=seed,
        labels=labels,
        meta={"layout_version": version},
    )


def dump_batch(batch: SampleBatch, path) -> None:
    with open(path, "wb") as fh:
        fh.write(batch_to_bytes(batch))


def load_batch(path) -> SampleBatch:
    with open(path, "rb") as fh:
        return batch_from_bytes(fh.read())
