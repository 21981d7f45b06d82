"""Binary batch container: round trips, layout stability, corruption."""

import re
import struct
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikelab.batchio import (
    _PROBLEM_CODES,
    batch_from_bytes,
    batch_to_bytes,
    dump_batch,
    load_batch,
)
from spikelab.measures import NonGaussMeasure
from spikelab.models import (
    SAMPLERS,
    ModelSpec,
    sample_atpca,
    sample_cca,
    sample_ngca,
    sample_tpca,
)


def example_batches():
    return {
        "tpca": sample_tpca(ModelSpec.tpca(k=3, d=4, snr=0.7, seed=2), 5, 11),
        "atpca": sample_atpca(ModelSpec.atpca(k=2, d=3, snr=0.5, seed=1), 4, 10),
        "ngca": sample_ngca(
            ModelSpec.ngca(d=6, measure=NonGaussMeasure("mog", 2, 0.3), seed=3), 8, 12
        ),
        "cca": sample_cca(ModelSpec.cca(k=2, d=3, snr=0.4, seed=4), 7, 13),
    }


def test_container_codes_are_the_sampled_problems():
    # One vocabulary: a code for each problem of SAMPLERS and no other,
    # and the "Problem codes" line of docs/formats.md names exactly these.
    assert _PROBLEM_CODES.keys() == SAMPLERS.keys()
    doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
    line = doc.split("\nProblem codes: ", 1)[1].split("\n\n", 1)[0]
    assert {name: int(code) for name, code in re.findall(r"`(\w+)` (\d+)", line)} == (
        _PROBLEM_CODES
    )


def test_round_trip_every_problem(tmp_path):
    for name, batch in example_batches().items():
        path = tmp_path / f"{name}.spkb"
        dump_batch(batch, path)
        loaded = load_batch(path)
        assert loaded.spec.problem == batch.spec.problem
        assert loaded.spec.k == batch.spec.k
        assert loaded.spec.d == batch.spec.d
        assert loaded.spec.snr == batch.spec.snr
        assert loaded.seed == batch.seed
        assert loaded.meta["layout_version"] == 1
        np.testing.assert_array_equal(loaded.data, batch.data)


def test_loaded_batch_replays_through_estimator():
    from spikelab.estimators import partial_trace_spectral

    batch = sample_tpca(ModelSpec.tpca(k=2, d=5, snr=1.0, seed=6), 32, 21)
    loaded = batch_from_bytes(batch_to_bytes(batch))
    direct = partial_trace_spectral(batch)
    replayed = partial_trace_spectral(loaded)
    np.testing.assert_array_equal(direct.estimate, replayed.estimate)
    assert replayed.overlap is None


def test_header_layout_is_frozen():
    batch = sample_tpca(ModelSpec.tpca(k=2, d=2, snr=0.5, seed=1), 1, 9)
    buf = batch_to_bytes(batch)
    expected = struct.pack(
        "<4sIIIIQdQII", b"SPKB", 1, 1, 2, 2, 1, 0.5, 9, 0, 0
    )
    assert buf[:52] == expected
    assert len(buf) == 52 + 8 * 4


def test_corruption_is_rejected():
    batch = sample_tpca(ModelSpec.tpca(k=2, d=3, snr=0.2, seed=0), 2, 3)
    buf = bytearray(batch_to_bytes(batch))
    with pytest.raises(ValueError, match="magic"):
        batch_from_bytes(b"NOPE" + bytes(buf[4:]))
    bad_version = bytearray(buf)
    bad_version[4] = 9
    with pytest.raises(ValueError, match="version"):
        batch_from_bytes(bytes(bad_version))
    for code in (5, 6, 200):  # 5 and 6 were the retired glm and parity
        bad_code = bytearray(buf)
        bad_code[8] = code
        with pytest.raises(ValueError, match="problem code"):
            batch_from_bytes(bytes(bad_code))
    with pytest.raises(ValueError, match="bytes"):
        batch_from_bytes(bytes(buf[:-8]))
    with pytest.raises(ValueError, match="header"):
        batch_from_bytes(b"SP")


def test_unknown_flags_and_a_nonzero_reserved_field_are_rejected():
    # a loader that ignored them accepted a container it would not write;
    # bit 0 was the retired label flag
    buf = batch_to_bytes(example_batches()["tpca"])
    for offset, byte in [(44, 1), (44, 2), (47, 128), (48, 1), (51, 255)]:
        bad = bytearray(buf)
        bad[offset] ^= byte
        with pytest.raises(ValueError, match="unknown flags .* or nonzero reserved field"):
            batch_from_bytes(bytes(bad))


@pytest.mark.parametrize("problem", [1, 2])
def test_a_huge_tensor_order_is_refused_before_its_power(problem):
    # k = 2^25 at d = 3 spent about 19 s on d**k, then raised Python's
    # int-to-string error instead of naming the length mismatch
    header = struct.pack("<4sIIIIQdQII", b"SPKB", 1, problem, 2**25, 3, 1, 0.5, 9, 0, 0)
    t0 = time.perf_counter()
    message = r"container holds 52 bytes, layout implies rows of 3\^33554432 entries"
    with pytest.raises(ValueError, match=message):
        batch_from_bytes(header)
    assert time.perf_counter() - t0 < 0.1
    # below k = 64 the power is taken and the length compared
    header = struct.pack("<4sIIIIQdQII", b"SPKB", 1, problem, 63, 2**32 - 1, 1, 0.5, 9, 0, 0)
    with pytest.raises(ValueError, match=f"layout implies {52 + 8 * (2**32 - 1) ** 63}$"):
        batch_from_bytes(header)


_CONTAINERS = {name: batch_to_bytes(batch) for name, batch in example_batches().items()}


@given(
    name=st.sampled_from(sorted(_CONTAINERS)),
    cut=st.integers(0, 10**6),
    # half of the flips land in the 52-byte header
    flips=st.lists(
        st.tuples(st.one_of(st.integers(0, 51), st.integers(0, 10**6)), st.integers(1, 255)),
        max_size=3,
    ),
)
@settings(max_examples=200, deadline=None)
def test_truncated_or_flipped_containers_raise_or_round_trip(name, cut, flips):
    # A truncated container raises ValueError.  A flipped one raises it,
    # or is a valid container that writes back to the same bytes, as a
    # flip of a payload, seed or snr byte can be; no case takes long.
    buf = _CONTAINERS[name]
    t0 = time.perf_counter()
    with pytest.raises(ValueError):
        batch_from_bytes(buf[: cut % len(buf)])
    flipped = bytearray(buf)
    for offset, byte in flips:
        flipped[offset % len(buf)] ^= byte
    try:
        loaded = batch_from_bytes(bytes(flipped))
    except ValueError:
        pass
    else:
        assert batch_to_bytes(loaded) == flipped
    assert time.perf_counter() - t0 < 0.5
