"""Run one workload in this (fresh) process and print its figures.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [SPANS]``
with ``src`` on ``PYTHONPATH``.  ``perfbench/run.py`` starts it; the
last line of its output is one JSON object of raw figures.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from collections import Counter

from calib import Calibrator, REF_NOMINAL
from ledger import LAYERS, Ledger, install

#: Set-up builds per run; ``setup_s`` is their median.  Build 0 is the
#: state the ops run on; the others use seeds derived from the run's.
SETUP_BUILDS = 7

#: The section 6.3 yardstick: the simulator's default link.
LINK_LATENCY_S = 0.05
LINK_BYTES_PER_S = 1_000_000.0


class Meter:
    """Times set-up chunks and ops against the reference loop."""

    now = staticmethod(time.perf_counter)

    def __init__(self, calibrator, ledger=None):
        self.cal = calibrator
        self.ledger = ledger
        self.ops: list = []
        self.counts = Counter()
        self.busy_cal = 0.0
        self.setup_cal = 0.0
        self.propagation = None

    # -- set-up ---------------------------------------------------------

    def chunk(self, fn, *args, **kwargs):
        start = self.now()
        result = fn(*args, **kwargs)
        self.setup_cal += self.cal.calibrate(self.now() - start)
        return result

    async def achunk(self, fn, *args):
        start = self.now()
        result = await fn(*args)
        self.setup_cal += self.cal.calibrate(self.now() - start)
        return result

    # -- ops --------------------------------------------------------------

    def begin_op(self) -> None:
        if self.ledger is not None:
            self.ledger.op_begin()

    def end_op(self, wall: float) -> float:
        """Close an op of ``wall`` seconds; returns its calibration factor
        (calibrated seconds per wall second)."""
        if self.ledger is not None:
            self.ledger.pause()
        cal = self.cal.calibrate(wall)
        factor = cal / wall if wall > 0 else REF_NOMINAL / self.cal.refs[-1]
        if self.ledger is not None:
            self.ledger.op_end(factor)
        self.busy_cal += cal
        return factor

    def time(self, fn, *args):
        """Run one op; returns ``(result, error, wall, calibrated)``."""
        self.begin_op()
        start = self.now()
        try:
            result, error = fn(*args), ""
        except Exception as exc:  # noqa: BLE001 - a counted failure
            result, error = None, type(exc).__name__
        wall = self.now() - start
        return result, error, wall, wall * self.end_op(wall)

    def record(self, op) -> None:
        """Keep one op.  A failure names its cause in ``op.error``; an
        op that is neither correct nor a named failure returned a wrong
        output, which is a correctness violation."""
        self.ops.append(op)
        if op.error:
            self.counts[f"error.{op.error}"] += 1
        elif not op.ok:
            self.counts["violations"] += 1

    def count(self, name: str, value) -> None:
        self.counts[name] += value


def _quantile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _class_position(ops, q: float):
    """The class of the op at quantile ``q`` and that op's quantile
    within its class: a position near 0 or 1 means the quantile sits
    at a class edge, where a small change of mix moves it."""
    if not ops:
        return None
    ordered = sorted(ops, key=lambda op: op.cal)
    op = ordered[min(len(ordered) - 1, int(q * len(ordered)))]
    peers = [other.cal for other in ordered if other.cls == op.cls]
    return [op.cls, round(peers.index(op.cal) / len(peers), 2)]


def _digest(ops) -> str:
    text = repr([(op.ok, op.error, op.wire, op.model, op.roundtrips)
                 for op in ops])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run(name: str, seed: int, seconds: int, trace: bool, spans_path=None):
    ledger = Ledger() if trace else None
    if ledger is not None:
        install(ledger)
    # Imported after the ledger is installed, so the names the
    # workloads bind from the program are the wrapped ones.
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    n_ops = max(10, round(seconds * workload.RATE))

    calibrator = Calibrator()
    try:
        return _run(workload, name, seed, n_ops, calibrator, ledger,
                    spans_path)
    finally:
        calibrator.close()


def _run(workload, name, seed, n_ops, calibrator, ledger, spans_path):
    setup = []
    state = None
    for build in range(SETUP_BUILDS):
        meter = Meter(calibrator)
        meter.cal.mark()
        built = workload.build(seed if build == 0 else
                               seed * 1_000_003 + build, meter)
        setup.append(meter.setup_cal)
        if build == 0:
            state = built
        elif hasattr(workload, "teardown"):
            workload.teardown(built)
        del built
        gc.collect()

    calibrator.refs.clear()
    meter = Meter(calibrator, ledger)
    meter.cal.mark()
    workload.run(state, n_ops, meter)
    if hasattr(workload, "teardown"):
        workload.teardown(state)

    ops = meter.ops
    attempted = len(ops)
    done = [op for op in ops if op.ok]
    timed = [op for op in done if op.timed]
    latencies = [op.cal for op in timed]
    classes = {}
    for op in timed:
        classes.setdefault(op.cls, []).append(op.cal)
    if meter.propagation is not None:
        prop50, prop90 = meter.propagation
    else:
        yardstick = [op.cal + op.roundtrips * LINK_LATENCY_S
                     + op.wire / LINK_BYTES_PER_S for op in done]
        prop50, prop90 = _quantile(yardstick, 0.5), _quantile(yardstick, 0.9)
    out = {
        "workload": name, "seed": seed,
        "attempted": attempted, "failed": attempted - len(done),
        "digest": _digest(ops),
        "exact": {
            "success_rate": len(done) / attempted,
            "wire_bytes_per_op": sum(op.wire for op in ops) / attempted,
            "model_bytes_per_op": sum(op.model for op in ops) / attempted,
            "roundtrips_per_op": sum(op.roundtrips for op in ops) / attempted,
        },
        "setup_s": statistics.median(setup),
        "ops_per_s": len(done) / meter.busy_cal,
        "latency_p50_ms": 1e3 * _quantile(latencies, 0.5),
        "latency_p90_ms": 1e3 * _quantile(latencies, 0.9),
        "latency_samples": len(latencies),
        "propagation_p50_s": prop50,
        "propagation_p90_s": prop90,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "busy_cal_s": meter.busy_cal,
        "host_ref_ms_p50": 1e3 * statistics.median(meter.cal.refs),
        "host_raw_latency_p50_ms": 1e3 * _quantile(
            [op.wall for op in timed], 0.5),
        "classes": {cls: [len(vals), round(1e3 * min(vals), 2),
                          round(1e3 * _quantile(vals, 0.5), 2),
                          round(1e3 * max(vals), 2)]
                    for cls, vals in sorted(classes.items())},
        "quantile_classes": {"p50": _class_position(timed, 0.5),
                             "p90": _class_position(timed, 0.9)},
        "counts": dict(meter.counts),
    }
    if meter.propagation is not None:
        # Simulated delays are exact, so they repeat bit for bit too.
        out["exact"]["propagation_p50_s"] = prop50
        out["exact"]["propagation_p90_s"] = prop90
    if ledger is not None:
        out["ledger"] = {
            "self_cal_s": ledger.self_cal,
            "calls": {layer: ledger.calls[layer] for layer in LAYERS},
            "unattributed_cal_s": ledger.unattributed_cal,
            "traced_cal_s": ledger.traced_cal,
            "counts": dict(ledger.counts),
            "spans": len(ledger.spans),
        }
        if spans_path:
            ledger.write(spans_path)
    return out


if __name__ == "__main__":
    workload, seed, seconds, trace = sys.argv[1:5]
    result = run(workload, int(seed), int(seconds), trace == "1",
                 sys.argv[5] if len(sys.argv) > 5 else None)
    print(json.dumps(result))
