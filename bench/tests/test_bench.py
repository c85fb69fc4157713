"""Tests of the benchmark itself, at toy sizes (a few seconds in all).

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

import json
import math
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import evosq.cli  # noqa: E402
import evosq.meshes  # noqa: E402
from bench import hostspeed, run, spans, verify, workloads  # noqa: E402
from evosq.io import write_matrix  # noqa: E402


def test_benchmark_json_matches_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_reproducible_from_the_seed(tmp_path, name):
    def draw(seed, sub):
        gen = workloads.InputGenerator(name, seed, "toy")
        runs = gen.draw(tmp_path / sub / "a") + gen.draw(tmp_path / sub / "b")
        meshes = sorted(p.read_bytes() for p in (tmp_path / sub).rglob("*.off"))
        for _, cfg in runs:  # configs name their own mesh file; compare contents instead
            cfg.pop("mesh", None)
        return runs, meshes

    assert draw(5, "x") == draw(5, "y")
    assert draw(5, "x") != draw(6, "z")


def test_jittered_mesh_keeps_connectivity():
    rng = np.random.default_rng(0)
    plain = evosq.meshes.disk_mesh(6, 12)
    moved = workloads.jittered_mesh(evosq.meshes.disk_mesh, (6, 12), rng)
    assert np.array_equal(moved.triangles, plain.triangles)
    before, after = plain.vertices[1:], moved.vertices[1:]
    dr = np.hypot(after[:, 0], after[:, 1]) - np.hypot(before[:, 0], before[:, 1])
    da = np.angle(np.exp(1j * (np.arctan2(after[:, 1], after[:, 0])
                               - np.arctan2(before[:, 1], before[:, 0]))))
    assert 0 < np.abs(dr).max() <= workloads.MESH_JITTER / 6 + 1e-12
    assert 0 < np.abs(da).max() <= workloads.MESH_JITTER * 2 * np.pi / 12 + 1e-12
    assert np.array_equal(moved.vertices[0], plain.vertices[0])
    evosq.exhaustion.SurfaceMesh(moved.vertices, moved.triangles)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    times = list(range(20))
    value, pct, n = run.tail(times)
    assert n == 20 and sum(t > value for t in times) == 10 and pct == 50.0


def test_host_clock_subtracts_its_loops_and_scales_by_their_speed():
    clock = hostspeed.HostClock()
    # (start, seconds): one loop before the interval, two inside, one after
    clock.samples = [(0.0, 0.02), (1.0, 0.04), (2.0, 0.04), (3.5, 0.02)]
    assert clock.busy(0.5, 3.0) == pytest.approx(0.08)
    assert clock.loop_s(0.5, 3.0) == pytest.approx(0.03)
    assert clock.loop_s(1.5, 1.6) == pytest.approx(0.04)  # the nearest loop on each side
    # a host at two thirds of nominal speed: 3 s of wall time are 2 nominal seconds
    assert clock.nominal(3.0, 0.5, 3.0) == pytest.approx(3.0 * hostspeed.NOMINAL_S / 0.03)


def test_host_clock_samples_on_its_timer_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    clock = hostspeed.HostClock()
    with clock.armed(False):
        time.sleep(2.5 * hostspeed.INTERVAL_S)
    assert clock.samples == []
    with clock.armed():
        end = time.perf_counter() + 4 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(clock.samples) >= 2 and all(s > 0 for _, s in clock.samples)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_time_subtracts_children():
    span_list = [
        ["cli.main", 0.0, 10.0, None, 0, 0],
        ["a", 1.0, 4.0, 0, 0, 0],
        ["b", 2.0, 3.0, 1, 0, 0],
        ["a", 5.0, 6.0, 0, 0, 0],
    ]
    agg = spans.aggregate(span_list)
    assert agg["cli.main"]["self_s"] == pytest.approx(6.0)
    assert agg["a"]["s"] == pytest.approx(4.0) and agg["a"]["self_s"] == pytest.approx(3.0)
    assert agg["a"]["calls"] == 2
    assert sum(row["self_s"] for row in agg.values()) == pytest.approx(10.0)


def test_tracer_wraps_every_binding_and_restores_them():
    originals = (evosq.cli.build_warped_geometry, evosq.source_bvp.evolve_tensor_forward,
                 evosq.evolution.PairOperator.apply, evosq.potentials.BumpPotential.on_slice)
    tracer = spans.Tracer()
    with tracer.installed():
        assert evosq.cli.build_warped_geometry is evosq.geometry.build_warped_geometry
        assert evosq.cli.build_warped_geometry is not originals[0]
        assert evosq.source_bvp.evolve_tensor_forward is evosq.evolution.evolve_tensor_forward
        assert evosq.evolve_tensor_forward is evosq.evolution.evolve_tensor_forward
        assert evosq.source_bvp.evolve_tensor_forward is not originals[1]
        geometry = evosq.build_warped_geometry("annulus", N=8, M=8, eps=0.3)
        assert tracer.spans == []  # inactive outside an iteration
        tracer.iteration = 0
        evosq.compute_dn_family(geometry, {"kind": "constant", "value": 1.0})
        tracer.iteration = None
    names = [s[0] for s in tracer.spans]
    assert names == ["dnmap.compute_dn_family", "dnmap.propagation_chain"]
    assert tracer.spans[1][3] == 0
    assert tracer.counters["potentials.on_slice.calls"] > 0
    assert (evosq.cli.build_warped_geometry, evosq.source_bvp.evolve_tensor_forward,
            evosq.evolution.PairOperator.apply, evosq.potentials.BumpPotential.on_slice) == originals


def _summary(out, scenario, results, passed=True, config=None):
    out.mkdir(parents=True, exist_ok=True)
    doc = {"scenario": scenario, "config": config or {}, "results": results, "passed": passed}
    (out / "summary.json").write_text(json.dumps(doc))


def test_verify_accepts_a_good_run_and_reads_the_error_ratio(tmp_path):
    _summary(tmp_path, "riccati-check", {"cross_error": 2e-3, "residual": 0.1, "tol": 1e-2})
    outcome = verify.check_run("riccati-check", tmp_path, 0)
    assert not outcome.failed and outcome.err_over_tol == pytest.approx(0.2)


@pytest.mark.parametrize(
    "case",
    ["not-pass", "exit-code", "nan", "exception", "no-summary", "hash", "truncated", "shells", "missing"],
)
def test_verify_rejects(tmp_path, case):
    scenario, results = "dn-compute", {"geometry_hash": "abc", "symmetry_defect": 0.0}
    passed, code, error = True, 0, None
    if case == "not-pass":
        passed = False
    elif case == "exit-code":
        code = 1
    elif case == "nan":
        results["eig_min"] = math.nan
    elif case == "exception":
        error = "RuntimeError: boom"
    elif case == "shells":
        scenario, results = "oducp-probe", {}
        (tmp_path / "shells.csv").write_text("shell_lo,shell_hi,mass\n0.1,0.2,nan\n0.2,0.4,1.0\n")
    if case != "no-summary":
        _summary(tmp_path, scenario, results, passed, {"sym_tol": 1e-8})
    if scenario == "dn-compute" and case != "missing":
        side = {"kind": "slice-map", "t": 0.0, "N": 2, "M": 8, "provenance": "test",
                "geometry_hash": "other" if case == "hash" else "abc"}
        for tag in ("boundary", "collar"):
            write_matrix(tmp_path / f"lam_{tag}.evsq", np.eye(2), side)
        if case == "truncated":
            path = tmp_path / "lam_collar.evsq"
            path.write_bytes(path.read_bytes()[:-3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = verify.check_run(scenario, tmp_path, code, error)
    assert outcome.failed, case


def _run_toy(name, trace):
    result, record = run.run_workload(name, 7, 0.2, trace, "toy")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in metrics.values())
    assert result["attempted"] >= 1
    return result, record, metrics


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_toy_run_reports_every_end_to_end_metric(name):
    result, record, metrics = _run_toy(name, 0)
    assert set(metrics) == set(run.END_TO_END)
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert all(v > 0 for v in metrics.values())
    assert record["nondeterministic_scenarios"] is None  # only traced runs rerun
    assert record["environment"]["nproc"] >= 1


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_toy_traced_run_isolates_its_layers(name):
    result, record, m = _run_toy(name, 1)
    assert set(m) == set(run.PER_LAYER)
    assert result["correct"], record["failures"]
    assert 0 <= m["bench.unattributed_frac"] < 0.05
    assert m["cli.main.self_s"] > 0
    assert m["bench.wall_iter_s_p50"] > 0 and m["bench.calibration_loop_ms"] > 0
    differ = record["nondeterministic_scenarios"]
    # the exhaustion summary carries its wall time (order_seconds), so it differs on rerun
    assert differ == (["exhaustion", "exhaustion"] if name == "modes-meshes" else [])
    if name == "headline":
        assert m["bench.evolve_tensor_share"] > 0 and m["dnmap.propagation_chain.calls"] == 4
        assert m["evolution.transport.peak_mb"] > 0 and m["evolution.pair_apply_per_step"] >= 2
        assert m["dnmap.propagation_chain.redundant_frac"] == 0
    elif name == "collar-maps":
        assert m["bench.evolve_tensor_share"] == 0 and m["dnmap.propagation_chain.calls"] == 9
        # layer-strip eliminates both of its potentials a second time
        assert m["dnmap.propagation_chain.redundant_frac"] == pytest.approx(2 / 9)
        assert m["dnmap.propagation_chain.peak_mb"] > 0
    else:
        assert m["dnmap.propagation_chain.calls"] == 0 and m["bench.evolve_tensor_share"] == 0
        assert m["bench.mode_sweep_exhaustion_share"] > 0.5
        assert m["exhaustion.samples_per_s"] > 0 and m["potentials.on_slice.calls"] > 0
        assert m["bench.nondeterministic_frac"] > 0


def test_without_sources_the_benchmark_exits_nonzero(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "headline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_all_workloads_from_the_command_line():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--all", "--toy", "--seed", "3", "--seconds", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    rows = json.loads(lines[-1])["workloads"]
    assert list(rows) == list(workloads.WORKLOADS)
    for name, row in rows.items():
        assert set(row) == {"correct", "attempted", "failed", "metrics"}
        assert row["correct"] and row["failed"] == 0
        for metric, unit in run.END_TO_END.items():
            assert row["metrics"][metric]["unit"] == unit
            assert any(line.startswith(f"{metric} ") and line.endswith(f" {unit}") for line in lines)
