"""Tests of the benchmark itself, on tiny workloads.

Run from the repository root with ``python -m pytest bench/test_bench.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ddrom import driver, sqp  # noqa: E402
from ddrom.sqp import SqpConfig  # noqa: E402

TINY = {
    "lsrom": workloads.Workload(
        "tiny-ls", "lsrom", 24, 4, SqpConfig(tol=1e-4, max_iter=15),
        n_points=4, setup_repeats=1, train_grid=4, n_int=4, n_gam=2, n_c=4),
    "nmrom": workloads.Workload(
        "tiny-nm", "nmrom", 24, 4, SqpConfig(tol=1e-4, max_iter=80),
        n_points=4, setup_repeats=1, train_grid=4, n_int=4, n_gam=2, n_c=4,
        epochs=20, hr_rows=20),
    "ddfom": workloads.Workload(
        "tiny-dd", "ddfom", 16, 4, SqpConfig(tol=1e-6, max_iter=15),
        n_points=4, setup_repeats=1),
}


def test_tracer_restores_original_attributes_also_on_error():
    tracer = tracing.Tracer()
    before = [(owner, attr, vars(owner)[attr])
              for owner, attr, _ in tracer.originals]
    with pytest.raises(KeyError):
        with tracer.active(0):
            assert driver.iterate is not sqp.iterate
            raise KeyError("boom")
    for owner, attr, original in before:
        assert vars(owner)[attr] is original
    assert driver.iterate is sqp.iterate


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_run_reproduces_untraced_bitwise(kind):
    wl = TINY[kind]
    tracer = tracing.Tracer()
    r = run.measure(wl, seed=3, seconds=0.0, tracer=tracer)
    assert r.problems == []
    assert len(r.samples) == len(r.traced) == wl.n_points
    for (i, q), (j, qt) in zip(r.samples, r.traced):
        assert i == j
        assert q.digest and qt.digest == q.digest
        assert qt.n_iter == q.n_iter
        assert qt.error.hex() == q.error.hex()
        assert qt.exact_error.hex() == q.exact_error.hex()
    layers = run.per_layer(r, tracer)
    assert set(layers) == set(run.PER_LAYER_UNITS)
    assert layers["trace.span_coverage"] >= 0.9
    assert layers["sqp.iters"] > 0 and layers["sqp.kkt_dim"] > 0
    assert (layers["autoencoder.epochs_run"] > 0) == (kind == "nmrom")
    assert (layers["hyper.sampled_rows"] > 0) == (kind == "nmrom")


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)


def test_query_points_are_seeded_and_avoid_training_points():
    train = workloads.snapshots.sample_grid(4, 4)
    a = workloads.query_points(5, 8, train)
    assert a == workloads.query_points(5, 8, train)
    assert a != workloads.query_points(6, 8, train)
    assert all(p.in_domain for p in a)
    with pytest.raises(ValueError):
        workloads.query_points(5, 8, train + [a[3]])


def test_point_ms_takes_each_parameters_median_at_reference_speed():
    ref = hostspeed.REFERENCE_MS

    def q(fom_s, rom_s, slow=1.0):
        return workloads.QueryResult(fom_s=fom_s * slow, rom_s=rom_s * slow,
                                     failure=None, probe_ms=ref * slow)

    # a host twice as slow doubles the probe and the query alike
    samples = [(1, q(0.02, 0.3)), (0, q(0.05, 0.2, slow=2.0)),
               (1, q(0.03, 0.1, slow=2.0)), (0, q(0.04, 0.4)),
               (0, q(0.01, 0.9)), (1, q(0.06, 0.2))]
    assert run.point_ms(samples, "rom_s") == pytest.approx([400.0, 200.0])
    assert run.point_ms(samples, "fom_s") == pytest.approx([40.0, 30.0])


def test_probe_times_a_fixed_kernel():
    assert 0.0 < hostspeed.probe_ms() and 0.0 < hostspeed.probe_ms(3)
    assert hostspeed.at_reference(0.5, 2 * hostspeed.REFERENCE_MS) == 0.25


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(64) == 84
    assert run.tail_percentile(32) == 68
    assert run.tail_percentile(16) == 50


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "dd-fom",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
