"""The frozen constants fixture stays valid for the current code."""

import hashlib
import math

import numpy as np
import pytest

from spikelab import detection
from spikelab.estimators import net_discrepancy
from spikelab.verify import LDLR_GRID_SNR, ldlr_grid, ldlr_sandwich, load_calibration


@pytest.fixture(scope="module")
def calibration():
    return load_calibration()


def test_fixture_keys_and_grid_parameters(calibration):
    assert calibration["format_version"] == 1.0
    assert calibration["wedin_dim"] == detection.WEDIN_DIM
    assert calibration["wedin_delta"] == detection.WEDIN_DELTA
    assert calibration["wedin_net_seed"] == detection.WEDIN_NET_SEED
    for k in (2, 3, 4):
        assert calibration[f"wedin_c_k{k}"] > 0
    for k in (2, 4):
        assert calibration[f"ldlr_ngca_snr_k{k}"] == LDLR_GRID_SNR[k]
        assert calibration[f"ldlr_ngca_c_lower_k{k}"] > 0
        assert calibration[f"ldlr_ngca_c_upper_k{k}"] > 0


def test_recorded_detection_medians_separate(calibration):
    for leg in ("partial_trace", "reweighted_covariance", "matricization", "cross_views"):
        signal = calibration[f"det_{leg}_signal"]
        null = calibration[f"det_{leg}_null"]
        assert signal >= 10.0 * null > 0.0


def test_norm_envelope_holds_with_frozen_constants(calibration):
    for k in (2, 4):
        c_lower = calibration[f"ldlr_ngca_c_lower_k{k}"]
        c_upper = calibration[f"ldlr_ngca_c_upper_k{k}"]
        saw_lower = False
        for inst in ldlr_grid(k):
            result = ldlr_sandwich(inst, c_lower=c_lower, c_upper=c_upper)
            assert result["upper_ok"], (k, inst.N, inst.d, inst.t, result)
            if "lower" in result:
                saw_lower = True
                assert result["lower_ok"], (k, inst.N, inst.d, inst.t, result)
        assert saw_lower


def test_wedin_net_is_the_calibrated_net():
    # The wedin_c_k* constants were measured on this exact net, and the
    # golden digests do not cover the fixture, so pin its bytes here.
    net = detection.wedin_net()
    digest = hashlib.sha256(net.tobytes()).hexdigest()
    assert digest == "2b6471e3ae5cab5d15a50483c7aff5f5ffe2c45586ec2e997cb5d95f6c93f56b"
    # Its coverage check: 10,000 probes drawn after the net from its seed.
    rng = np.random.default_rng(detection.WEDIN_NET_SEED)
    rng.standard_normal(net.shape)
    q = rng.standard_normal((10_000, detection.WEDIN_DIM))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    lowest = min(float((q[i : i + 500] @ net.T).max(axis=1).min()) for i in range(0, 10_000, 500))
    assert math.sqrt(max(2.0 - 2.0 * lowest, 0.0)) <= detection.WEDIN_DELTA


def test_net_discrepancy_inequality_on_fresh_pairs(calibration):
    net = detection.wedin_net()
    delta = detection.WEDIN_DELTA
    pairs = detection.random_unit_pairs(150, detection.WEDIN_DIM, seed=1)
    for k in (2, 3, 4):
        c_k = calibration[f"wedin_c_k{k}"]
        for u1, u2 in pairs:
            dist = min(math.dist(u1, u2), math.dist(u1, -u2))
            disc = net_discrepancy(u1, u2, net, k)
            assert disc >= dist / c_k - delta * c_k - 1e-12
