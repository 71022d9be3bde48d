"""End-to-end host-time benchmark of the simulated 5G core.

Run from the repository root::

    python3 perfbench/run.py --workload dl_fastpath --seed 1 --seconds 10
    python3 perfbench/run.py --workload ue_churn --seed 1 --seconds 10 --trace 1

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
traced per-layer pass instead.  Every metric is printed on its own line
with its unit and sample count; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness check exits 1; a missing ``src/repro`` exits 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

#: The window is split into at most this many segments for the tail.
MAX_SEGMENTS = 32

#: End-to-end metrics carried in the final JSON line (BENCHMARK.json).
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_us_p50": "us",
    "op_us_tail": "us",
    "rss_peak_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _line(name: str, value: float, unit: str, samples: int, note: str = "") -> None:
    suffix = f"  [{note}]" if note else ""
    print(f"{name:<32} {value:>14.6g} {unit:<6} n={samples}{suffix}")


def run_untraced(inputs):
    """Set up ``setup_repeats`` times, then time one window.

    Returns (result, setup times, set-up digests).
    """
    from harness import Bench, Timing

    setups, digests = Timing(), []
    bench = None
    for _ in range(inputs.workload.setup_repeats):
        bench = None  # free the previous core before the next set-up
        gc.collect()
        bench = Bench(inputs)
        setups.open()
        start = perf_counter()
        bench.setup()
        setups.add(perf_counter() - start, 1)
        setups.close()
        digests.append(bench.warm_up())
    return bench.window(), setups, digests


def segments(result):
    """(rate, p50, p90) of each consecutive segment of the window.

    Every segment holds at least 100 samples, so its p90 has ten
    samples beyond it.
    """
    from harness import percentile

    n = len(result.samples)
    count = max(1, min(MAX_SEGMENTS, n // 100))
    out = []
    for i in range(count):
        lo, hi = i * n // count, (i + 1) * n // count
        part = result.samples[lo:hi]
        t = result.timing
        rate = sum(t.units[lo:hi]) / sum(
            s * k for s, k in zip(t.seconds[lo:hi], t.scale[lo:hi]))
        out.append((rate, percentile(part, 50), percentile(part, 90)))
    return out


def end_to_end(inputs) -> dict:
    from harness import CheckFailed, percentile

    workload = inputs.workload
    result, setups, digests = run_untraced(inputs)
    if len(set(digests)) != 1:
        raise CheckFailed("modeled set-up digests differ between set-ups")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    packets = workload.unit == "pkt"
    setup_s = statistics.median(s * k for s, k in zip(setups.seconds,
                                                      setups.scale))
    raw_setup_s = statistics.median(setups.seconds)
    rate = result.units / result.scaled_s
    raw_rate = result.units / result.host_s
    p50 = percentile(result.samples, 50)
    # The gated tail is the median of the segments' p90s: a burst of
    # contention from other tenants moves a few segments, not the value.
    parts = segments(result)
    p90 = statistics.median(part[2] for part in parts)
    n = len(result.samples)
    note = f"median over {len(parts)} segments"
    speed = result.host_s / result.scaled_s

    print(f"# workload {workload.name}  seed {inputs.seed}  "
          f"{result.units} {workload.unit}  config {workload.config}")
    print(f"# host times are scaled to the reference host speed; this "
          f"run's raw times were {speed:.3f}x the scaled ones")
    _line("setup_s", setup_s, "s", len(setups.seconds),
          f"raw {raw_setup_s:.6g} s")
    if packets:
        _line("pkt_per_s", rate, "1/s", result.units,
              f"raw {raw_rate:.6g}/s")
        _line("pkt_us_p50", p50, "us", n, "per arrival instant")
        _line("pkt_us_p90", p90, "us", n, note)
        _line("pkt_us_p99", percentile(result.samples, 99), "us", n,
              "per arrival instant")
    else:
        _line("ue_per_s", rate, "1/s", result.units,
              f"raw {raw_rate:.6g}/s")
        _line("ue_ms_p50", p50, "ms", n, "per cohort")
        _line("ue_ms_p90", p90, "ms", n, note)
    _line("rss_peak_mb", rss_mb, "MB", 1)
    _line("fail_ratio", result.failed / result.attempted, "ratio",
          result.attempted)
    for name, value in result.counts.items():
        _line(f"count.{name}", value, "count", 1)
    for i, (seg_rate, seg_p50, seg_p90) in enumerate(parts):
        print(f"# segment {i}: rate {seg_rate:.6g}/s  p50 {seg_p50:.6g}  "
              f"p90 {seg_p90:.6g}")
    print(f"# modeled digest {result.digest}  (sim-time outputs; a check, "
          f"not a metric)")
    print(f"# modeled set-up digest {digests[0]}")

    # The JSON metrics are workload-generic: an "op" is a packet on the
    # packet workloads and a UE lifecycle on ue_churn.
    us_per_op = 1.0 if packets else 1e3
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": rate,
        "op_us_p50": p50 * us_per_op,
        "op_us_tail": p90 * us_per_op,
        "rss_peak_mb": rss_mb,
    }
    return {
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": E2E_UNITS[name]}
            for name, value in metrics.items()
        },
    }


def per_layer(workload, seed: int, seconds: float) -> dict:
    from inputs import generate
    from layers import TRACE_SHARE, traced_run

    inputs = generate(workload, seed, seconds * TRACE_SHARE)
    report = traced_run(inputs, ROOT / ".perfbench")
    print(f"# workload {inputs.workload.name}  seed {inputs.seed}  traced "
          f"{report['units']} {inputs.workload.unit}")
    for name, (value, unit, samples) in report["metrics"].items():
        _line(name, value, unit, samples)
    print(f"# chrome trace {report['trace_path']} "
          f"({report['spans']} spans in the window)")
    print(f"# modeled digest {report['digest']}  (traced == untraced)")
    return {
        "correct": True,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in report["metrics"].items()
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from harness import CheckFailed
    from inputs import WORKLOADS, generate

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            out = per_layer(workload, args.seed, args.seconds)
        else:
            out = end_to_end(generate(workload, args.seed, args.seconds))
    except CheckFailed as failure:
        print(f"perfbench: correctness check failed: {failure}",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
