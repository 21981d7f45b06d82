"""Span recording for the traced benchmark run.

A span has a name, a start, an end and the span that was open when it
began.  Spans live in flat arrays and are written once, at the end of
the run.  The benchmark opens spans around its own calls (one ``op``
span per timed op, one span per CLI call), and ``install`` rebinds the
public functions of each layer to timing wrappers, so that calls the
program makes internally (the codec inside ``update``, ``contract_batch``
inside the estimators) are timed too.  Nothing in ``src/spikelab`` is
edited; the wrappers are only installed in traced runs, so untraced
runs execute the program unmodified.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name, counter hook).  A missing attribute is
# skipped, so the metrics of a layer that is later removed read zero
# instead of breaking the benchmark.
FUNCTIONS = [
    ("spikelab.models", "sample_tpca", "models.sample", None),
    ("spikelab.models", "sample_atpca", "models.sample", None),
    ("spikelab.models", "sample_ngca", "models.sample", None),
    ("spikelab.models", "sample_cca", "models.sample", "proposals"),
    ("spikelab.measures", "build_mog_measure", "measures.build", None),
    ("spikelab.measures", "build_bounded_llr_measure", "measures.build", None),
    ("spikelab.hermite", "gauss_hermite_rule", "hermite.rule", None),
    ("spikelab.tensors", "contract_batch", "tensors.contract", None),
    ("spikelab.estimators", "tensor_power_method", "estimators.estimate", "iterations"),
    ("spikelab.estimators", "partial_trace_spectral", "estimators.estimate", "iterations"),
    ("spikelab.estimators", "mr_matricization_estimator", "estimators.estimate", "iterations"),
    ("spikelab.estimators", "cca_matricization_estimator", "estimators.estimate", "iterations"),
    ("spikelab.estimators", "ngca_spectral", "estimators.estimate", "iterations"),
    ("spikelab.estimators", "brute_force_ngca", "estimators.net", None),
    ("spikelab.estimators", "brute_force_cca", "estimators.net", None),
    ("spikelab.harness", "run_memory_bounded", "harness.stream", None),
    ("spikelab.harness", "run_distributed", "harness.protocol", "rounds"),
    ("spikelab.verify", "rademacher_mean_moment", "verify.moment", None),
    ("spikelab.verify", "integrated_hermite_norm", "verify.hermite_norm", None),
    ("spikelab.verify", "ldlr_norm_exact", "verify.ldlr", None),
]

METHODS = [
    ("spikelab.harness", "QuantizedIteration", "update", "harness.update"),
    ("spikelab.harness", "QuantizerSpec", "encode", "harness.codec"),
    ("spikelab.harness", "QuantizerSpec", "decode", "harness.codec"),
]

SUITES = ("hermite", "rademacher", "ldlr", "models", "harness")

# name -> unit.  Every value is per timed op, except the proposal ratio
# and the time per protocol round.
LAYER_METRICS = {
    "models.sample_ms": "ms/op",
    "models.cca_proposals_per_row": "proposals/row",
    "tensors.contract_calls": "calls/op",
    "tensors.contract_ms": "ms/op",
    "estimators.estimate_ms": "ms/op",
    "estimators.power_iters": "iters/op",
    "estimators.net_ms": "ms/op",
    "harness.update_calls": "calls/op",
    "harness.update_ms": "ms/op",
    "harness.codec_calls": "calls/op",
    "harness.codec_ms": "ms/op",
    "harness.stream_ms": "ms/op",
    "harness.protocol_ms": "ms/op",
    "harness.rounds": "bits/op",
    "harness.round_us": "us/round",
    **{f"verify.suite_ms.{suite}": "ms/op" for suite in SUITES},
    "verify.moment_ms": "ms/op",
    "verify.hermite_norm_ms": "ms/op",
    "verify.ldlr_ms": "ms/op",
    "hermite.rule_ms": "ms/op",
    "measures.build_ms": "ms/op",
    "cli.other_ms": "ms/op",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {"proposals": 0, "rows": 0, "iterations": 0, "rounds": 0}
        self.cut = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(index)

    def _count(self, hook: str, result) -> None:
        if self.cut is not None:
            return
        if hook == "proposals":
            self.counts["proposals"] += int(result.meta.get("proposals", 0))
            self.counts["rows"] += int(result.n)
        elif hook == "iterations":
            self.counts["iterations"] += int(result.iterations)
        elif hook == "rounds":
            self.counts["rounds"] += len(result[1].bits)

    def wrap(self, fn, name: str, hook: str | None = None):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                self._count(hook, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind the layer functions wherever spikelab holds a reference.

        Module globals and module-level tables (such as a dict of
        samplers built at import time) are both searched, so calls made
        through either reach the wrapper.
        """
        for module, attr, name, hook in FUNCTIONS:
            original = getattr(sys.modules.get(module), attr, None)
            if original is not None:
                _rebind(original, self.wrap(original, name, hook))
        for module, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            if cls is not None and hasattr(cls, attr):
                setattr(cls, attr, self.wrap(getattr(cls, attr), name))

    def close_phase(self) -> None:
        """Spans and counts recorded after this call (output checks) are not used."""
        self.cut = len(self.start)

    def _arrays(self):
        n = self.cut if self.cut is not None else len(self.start)
        ids = np.frombuffer(self.name_id, dtype=np.int32)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        dur = (np.frombuffer(self.end)[:n] - np.frombuffer(self.start)[:n]) * 1e3
        child = np.zeros(n)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return ids, dur, dur - child

    def layer_metrics(self, n_ops: int) -> dict:
        ids, dur, self_ms = self._arrays()

        def select(name):
            nid = self._ids.get(name)
            return ids == nid if nid is not None else np.zeros(len(ids), bool)

        def total(name):
            return float(dur[select(name)].sum()) / n_ops

        def own(*names):
            return sum(float(self_ms[select(n)].sum()) for n in names) / n_ops

        def calls(name):
            return int(select(name).sum()) / n_ops

        rounds = self.counts["rounds"]
        rows = self.counts["rows"]
        values = {
            "models.sample_ms": own("models.sample"),
            "models.cca_proposals_per_row": self.counts["proposals"] / rows if rows else 0.0,
            "tensors.contract_calls": calls("tensors.contract"),
            "tensors.contract_ms": own("tensors.contract"),
            "estimators.estimate_ms": own("estimators.estimate"),
            "estimators.power_iters": self.counts["iterations"] / n_ops,
            "estimators.net_ms": total("estimators.net"),
            "harness.update_calls": calls("harness.update"),
            "harness.update_ms": own("harness.update"),
            "harness.codec_calls": calls("harness.codec"),
            "harness.codec_ms": own("harness.codec"),
            "harness.stream_ms": total("harness.stream"),
            "harness.protocol_ms": total("harness.protocol"),
            "harness.rounds": rounds / n_ops,
            # run_distributed time outside the update calls it makes.
            "harness.round_us": own("harness.protocol") * n_ops * 1e3 / rounds if rounds else 0.0,
            **{f"verify.suite_ms.{s}": total(f"verify.suite.{s}") for s in SUITES},
            "verify.moment_ms": own("verify.moment"),
            "verify.hermite_norm_ms": own("verify.hermite_norm"),
            "verify.ldlr_ms": own("verify.ldlr"),
            "hermite.rule_ms": own("hermite.rule"),
            "measures.build_ms": own("measures.build"),
            "cli.other_ms": own("op", "cli.sweep"),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}

    def dump(self, path) -> None:
        n = self.cut if self.cut is not None else len(self.start)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32)[:n],
            parent=np.frombuffer(self.parent, dtype=np.int32)[:n],
            start=np.frombuffer(self.start)[:n],
            end=np.frombuffer(self.end)[:n],
        )


def _rebind(original, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if not name.startswith("spikelab"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper
