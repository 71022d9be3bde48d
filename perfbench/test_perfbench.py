"""Benchmark-local tests: seeded inputs, digests and the traced run.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Runs are kept tiny (a fraction of a second of nominal work).
"""

import gc
import subprocess
import sys
from pathlib import Path

import pytest

from harness import Bench
from inputs import WORKLOADS, generate
from layers import Tracer, targets, traced_run

HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py")]
SECONDS = 0.05


def _window_digest(inputs) -> str:
    bench = Bench(inputs)
    bench.setup()
    bench.warm_up()
    return bench.window().digest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    workload = WORKLOADS[name]
    first = generate(workload, 7, SECONDS)
    assert first.fingerprint() == generate(workload, 7, SECONDS).fingerprint()
    assert first.fingerprint() != generate(workload, 8, SECONDS).fingerprint()
    assert first.units > 0


@pytest.mark.parametrize("name", ["ho_fastpath", "ue_churn"])
def test_same_seed_same_modeled_digest(name):
    inputs = generate(WORKLOADS[name], 3, SECONDS)
    assert _window_digest(inputs) == _window_digest(inputs)


def test_digest_repeats_across_processes():
    """PYTHONHASHSEED differs per process; the modeled digest may not."""
    digests = set()
    for _ in range(2):
        out = subprocess.run(
            RUN + ["--workload", "ue_churn", "--seed", "5",
                   "--seconds", str(SECONDS)],
            capture_output=True, text=True, check=True,
        ).stdout
        digests.update(line.split()[3] for line in out.splitlines()
                       if line.startswith("# modeled digest"))
    assert len(digests) == 1


def _snapshot(bench):
    return [(owner, attr, vars(owner).get(attr))
            for owner, attr, *_ in targets(bench)]


@pytest.mark.parametrize("name", ["dl_fastpath", "ho_fastpath", "ue_churn"])
def test_traced_run_restores_wrappers_and_matches_untraced(name, tmp_path):
    inputs = generate(WORKLOADS[name], 2, SECONDS)
    bench = Bench(inputs)
    bench.setup()
    bench.warm_up()
    before = _snapshot(bench)
    with Tracer(bench).installed() as tracer:
        assert _snapshot(bench) != before
        traced = bench.window()
    assert _snapshot(bench) == before
    assert tracer._on_gc not in gc.callbacks
    assert bench.tracer is None
    assert traced.digest == _window_digest(inputs)

    report = traced_run(inputs, tmp_path)
    assert report["digest"] == traced.digest
    assert (tmp_path / f"trace-{name}.json").stat().st_size > 0


def test_traced_run_reproduces_seed_counts(tmp_path):
    dl = traced_run(generate(WORKLOADS["ul_dl_default"], 1, SECONDS),
                    tmp_path)["metrics"]
    assert dl["sim.events_per_dl_pkt"][0] == 6
    assert dl["sim.processes_per_dl_pkt"][0] == 2
    assert dl["sim.events_per_ul_pkt"][0] == 0
    assert dl["sim.processes_per_ul_pkt"][0] == 0
    churn = traced_run(generate(WORKLOADS["ue_churn"], 1, SECONDS),
                       tmp_path)["metrics"]
    assert churn["transport.msgs_per_ue"][0] == 81


def test_no_source_tree_exits_nonzero(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for path in ("run.py", "inputs.py", "harness.py", "layers.py"):
        (bench_dir / path).write_text((HERE / path).read_text())
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dl_fastpath",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
