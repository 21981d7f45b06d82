"""Regenerate the frozen constants fixture.

Usage, from the repository root:

    python3 scripts/calibrate.py

Measures the unnamed constants in the analytic envelopes (net
discrepancy, exact low-degree norms) on their fixed grids, records the
reference detection medians, and rewrites
``src/spikelab/data/calibration.txt``.  Tests assert the recorded
values stay valid, so rerunning this script is only appropriate when
the grids themselves change.
"""

import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from spikelab import detection  # noqa: E402
from spikelab.estimators import net_discrepancy  # noqa: E402
from spikelab.verify import LDLR_GRID_SNR, ldlr_grid, ldlr_norm_exact  # noqa: E402

MARGIN = 1.3
CALIBRATION_PAIRS = 200
DETECTION_SNR = {
    "partial-trace": 1.0,
    "reweighted-covariance": 1.0,
    "matricization": 1.0,
    "cross-views": 0.5,
}


def wedin_constant(k: int) -> float:
    """Smallest C with ``disc >= dist/C - delta*C`` on the pair sweep.

    Per pair the admissible C solve ``delta C^2 + disc C - dist >= 0``,
    so the binding value is the positive root of the quadratic.
    """
    net = detection.wedin_net()
    pairs = detection.random_unit_pairs(CALIBRATION_PAIRS, detection.WEDIN_DIM, 0)
    delta = detection.WEDIN_DELTA
    worst = 0.0
    for u1, u2 in pairs:
        dist = min(
            float(math.dist(u1, u2)), float(math.dist(u1, -u2))
        )
        disc = net_discrepancy(u1, u2, net, k)
        root = (-disc + math.sqrt(disc * disc + 4.0 * delta * dist)) / (2.0 * delta)
        worst = max(worst, root)
    return worst * MARGIN


def ldlr_constants(k: int) -> tuple[float, float]:
    c_lower = 0.0
    c_upper = 0.0
    for inst in ldlr_grid(k):
        norm = ldlr_norm_exact(inst)
        scale = inst.envelope_scale
        c_upper = max(c_upper, norm / scale)
        if inst.has_lower_envelope:
            c_lower = max(c_lower, scale / norm ** (k / inst.t))
    return c_lower * MARGIN, c_upper * MARGIN


def main() -> None:
    lines = [
        "# Frozen calibration constants.  Regenerate with",
        "#     python3 scripts/calibrate.py",
        "# only when the underlying grids change; tests assert these",
        "# values stay valid for the current code.",
        "format_version = 1",
        f"wedin_dim = {detection.WEDIN_DIM}",
        f"wedin_delta = {detection.WEDIN_DELTA}",
        f"wedin_net_seed = {detection.WEDIN_NET_SEED}",
    ]
    for k in (2, 3, 4):
        value = wedin_constant(k)
        lines.append(f"wedin_c_k{k} = {value:.6g}")
        print(lines[-1])
    for k in (2, 4):
        c_lower, c_upper = ldlr_constants(k)
        lines.append(f"ldlr_ngca_snr_k{k} = {LDLR_GRID_SNR[k]}")
        lines.append(f"ldlr_ngca_c_lower_k{k} = {c_lower:.6g}")
        lines.append(f"ldlr_ngca_c_upper_k{k} = {c_upper:.6g}")
        print(lines[-2])
        print(lines[-1])
    for name, snr in DETECTION_SNR.items():
        key = name.replace("-", "_")
        signal = detection.detection_median(name, snr)
        null = detection.detection_median(name, 0.0)
        lines.append(f"det_{key}_snr = {snr}")
        lines.append(f"det_{key}_signal = {signal:.6g}")
        lines.append(f"det_{key}_null = {null:.6g}")
        print(f"det_{key}: signal={signal:.6g} null={null:.6g}")
    out = (
        pathlib.Path(__file__).resolve().parents[1]
        / "src"
        / "spikelab"
        / "data"
        / "calibration.txt"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
