"""Graphene benchmark: cold real-node traffic, calibrated to the host.

Run from the root of a checkout::

    python3 perfbench/run.py --workload relay --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` for why each exists):

* ``relay`` -- distinct ~2000-tx blocks into one evolving mempool over
  a loopback transport, Protocols 1 and 2;
* ``sync``  -- two ~3000-tx pools re-synced round after round;
* ``mesh``  -- two serving PeerManagers and one fetcher on localhost
  TCP, rateless Protocol 3, several roots in flight;
* ``sim``   -- 100 scale-free simulated nodes, a 24-tx block a second,
  2% link loss.

Each run starts the workload in a fresh worker process, so module
caches start empty and the peak RSS is the workload's own.  A run
measures a fixed number of ops, ``--seconds`` times the workload's
nominal rate, so the exact figures of one seed repeat bit for bit.
Every timing is calibrated against a reference loop run next to it
(``calib.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reruns
the same ops untraced and then traced, checks that both runs produced
the same op outcomes and exact figures, and reports the per-layer
ledger (``ledger.py``); its spans are written to
``.perfbench_out/``.  ``--workload all`` prints both tables for every
workload.  ``--selftest`` checks that two runs of one seed and a
traced run agree bit for bit.

The last line of output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when
any op returned a wrong output or the traced run diverged, and 2 when
the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("relay", "sync", "mesh", "sim")
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(workload: str, seed: int, seconds: int, trace: bool,
            spans=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           str(seconds), "1" if trace else "0"]
    if spans is not None:
        cmd.append(str(spans))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker exceeded "
                         f"{WORKER_TIMEOUT_S}s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def _with_units(section: str, values: dict) -> dict:
    """Attach to every metric ``BENCHMARK.json`` lists in ``section`` its
    value and unit; the file is the one list of metric names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in spec[section]}


def end_to_end(raw: dict) -> dict:
    values = {name: raw.get(name) for name in (
        "setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms",
        "propagation_p50_s", "propagation_p90_s", "peak_rss_mb")}
    values.update(raw["exact"])
    return _with_units("end_to_end", values)


def per_layer(plain: dict, traced: dict) -> dict:
    ops = traced["attempted"]
    ledger = traced["ledger"]
    counts = {**traced["counts"], **ledger["counts"]}
    total = ledger["traced_cal_s"] or 1.0

    def ratio(num: str, den: str) -> float:
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    def per_op(name: str, scale: float = 1.0) -> float:
        return counts.get(name, 0) * scale / ops

    values = {}
    for layer, self_s in ledger["self_cal_s"].items():
        values[f"{layer}.self_ms_per_op"] = 1e3 * self_s / ops
        values[f"{layer}.calls_per_op"] = ledger["calls"][layer] / ops
        values[f"{layer}.share"] = self_s / total
    values.update({
        "pds.iblt_decode_rate": ratio("iblt_decoded", "iblt_decodes"),
        "chain.repeat_txid_share": ratio("items_repeat", "items"),
        "chain.repeat_block_share": ratio("validations_repeat",
                                          "validations"),
        "core.p1_decode_rate": ratio("p1_decoded", "p1_attempts"),
        "core.p2_share": per_op("p2_ops"),
        "core.p3_symbols_per_op": per_op("p3_symbols"),
        "codec.encoded_kb_per_op": per_op("encoded_bytes", 1 / 1024),
        "net.events_per_op": per_op("events"),
        "net.retries_per_op": per_op("retries"),
        "net.timeouts_per_op": per_op("timeouts"),
        "peer.frames_per_op": per_op("frames"),
        "peer.frame_overhead_bytes_per_op": per_op("frame_overhead"),
        "peer.inv_duplicates_per_op": per_op("inv_duplicates"),
        "peer.failovers_per_op": per_op("failovers"),
        "host.ref_ms_p50": plain["host_ref_ms_p50"],
        "host.raw_latency_p50_ms": plain["host_raw_latency_p50_ms"],
        "trace.overhead": traced["busy_cal_s"] / plain["busy_cal_s"] - 1,
        "trace.unattributed_share": ledger["unattributed_cal_s"] / total,
    })
    return _with_units("per_layer", values)


def diverged(plain: dict, traced: dict) -> list:
    """Exact figures or op outcomes on which the traced run differs."""
    bad = [name for name, value in plain["exact"].items()
           if traced["exact"][name] != value]
    if plain["digest"] != traced["digest"]:
        bad.append("op outcomes")
    return bad


def measure(workload: str, seed: int, seconds: int, trace: bool):
    """Run the workload untraced and, with ``trace``, traced as well."""
    plain = _worker(workload, seed, seconds, False)
    if not trace:
        return plain, None
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    return plain, _worker(workload, seed, seconds, True,
                          out / f"spans-{workload}-{seed}.jsonl")


def report(plain: dict, traced=None) -> dict:
    """The result of a run: end-to-end metrics from the untraced run, or
    the ledger when a traced run is given."""
    result = {"correct": plain["counts"].get("violations", 0) == 0,
              "attempted": plain["attempted"], "failed": plain["failed"]}
    if traced is None:
        result["metrics"] = end_to_end(plain)
        notes = {"classes": plain["classes"],
                 "quantile_classes": plain["quantile_classes"],
                 "latency_samples": plain["latency_samples"]}
        if plain["latency_samples"] < 100:
            notes["warning"] = ("fewer than 10 samples above p90; "
                                "raise --seconds")
    else:
        bad = diverged(plain, traced)
        if bad:
            print(f"traced run diverged on: {', '.join(bad)}",
                  file=sys.stderr)
        if bad or traced["counts"].get("violations", 0):
            result["correct"] = False
        result["metrics"] = per_layer(plain, traced)
        notes = {"spans": traced["ledger"]["spans"]}
    notes["errors"] = {key[len("error."):]: value
                       for key, value in plain["counts"].items()
                       if key.startswith("error.")}
    notes["violations"] = plain["counts"].get("violations", 0)
    result["notes"] = notes
    return result


def print_table(workload: str, result: dict) -> None:
    print(f"== {workload}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    for key, value in result["notes"].items():
        print(f"  # {key}: {json.dumps(value)}")


def selftest(workloads, seed: int, seconds: int) -> bool:
    """Two plain runs and one traced run of each workload must agree on
    every exact figure and every op outcome."""
    ok = True
    for workload in workloads:
        first = _worker(workload, seed, seconds, False)
        second = _worker(workload, seed, seconds, False)
        traced = _worker(workload, seed, seconds, True)
        bad = diverged(first, second) + [f"traced {name}" for name in
                                         diverged(first, traced)]
        print(f"{workload}: {'ok' if not bad else 'DIVERGED ' + str(bad)} "
              f"{json.dumps(first['exact'])}")
        ok = ok and not bad
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is "
              "missing", file=sys.stderr)
        return 2
    try:
        if args.selftest:
            chosen = WORKLOADS if args.workload == "all" \
                else (args.workload,)
            return 0 if selftest(chosen, args.seed, args.seconds) else 1
        if args.workload == "all":
            correct = True
            for workload in WORKLOADS:
                plain, traced = measure(workload, args.seed, args.seconds,
                                        True)
                for result in (report(plain), report(plain, traced)):
                    print_table(workload, result)
                    correct = correct and result["correct"]
            return 0 if correct else 1
        result = report(*measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace)))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    print_table(args.workload, result)
    result.pop("notes")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
