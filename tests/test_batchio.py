"""Binary batch container: round trips, layout stability, corruption."""

import struct

import numpy as np
import pytest

from spikelab.batchio import (
    batch_from_bytes,
    batch_to_bytes,
    dump_batch,
    load_batch,
)
from spikelab.measures import NonGaussMeasure
from spikelab.models import (
    ModelSpec,
    reduce_cca_to_parity,
    reduce_ngca_to_glm,
    sample_cca,
    sample_ngca,
    sample_tpca,
)


def example_batches():
    # The relabeling reductions need odd-order instances: a bounded odd
    # tilt for the regression one, three views for parity.
    tpca = sample_tpca(ModelSpec.tpca(k=3, d=4, snr=0.7, seed=2), 5, 11)
    ngca = sample_ngca(
        ModelSpec.ngca(d=6, measure=NonGaussMeasure("mog", 2, 0.3), seed=3), 8, 12
    )
    odd = sample_ngca(
        ModelSpec.ngca(d=4, measure=NonGaussMeasure("bounded-llr", 3, 0.02), seed=5), 6, 16
    )
    cca = sample_cca(ModelSpec.cca(k=2, d=3, snr=0.4, seed=4), 7, 13)
    cca3 = sample_cca(ModelSpec.cca(k=3, d=3, snr=0.2, seed=8), 9, 17)
    return {
        "tpca": tpca,
        "ngca": ngca,
        "cca": cca,
        "glm": reduce_ngca_to_glm(odd, 14),
        "parity": reduce_cca_to_parity(cca3, 15),
    }


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
        if batch.labels is None:
            assert loaded.labels is None
        else:
            np.testing.assert_array_equal(loaded.labels, batch.labels)


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
    bad_code = bytearray(buf)
    bad_code[8] = 200
    with pytest.raises(ValueError, match="problem code"):
        batch_from_bytes(bytes(bad_code))
    with pytest.raises(ValueError, match="bytes"):
        batch_from_bytes(bytes(buf[:-8]))
    with pytest.raises(ValueError, match="header"):
        batch_from_bytes(b"SP")


def test_label_flag_drives_payload_length():
    batches = example_batches()
    plain = batches["ngca"]
    labeled = batches["glm"]
    assert len(batch_to_bytes(plain)) == 52 + 8 * plain.n * plain.spec.row_length
    assert (
        len(batch_to_bytes(labeled))
        == 52 + 8 * labeled.n * (labeled.spec.row_length + 1)
    )
