import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evosq import cli
from evosq.cli import _SCENARIOS, SCENARIOS, main
from evosq.dnmap import compute_dn_family
from evosq.evolution import PairOperator
from evosq.geometry import MAX_BOUNDARY_NODES, PROFILE_PARAMS, Profile, build_warped_geometry
from evosq.io import read_matrix
from evosq.exhaustion import SurfaceMesh
from evosq.meshes import disk_mesh, save_off, strip_mesh
from evosq.potentials import BumpPotential, make_potential
from evosq.probes import null_test
from evosq.source_bvp import dn_recovery_check
from tests.oracles import sphere_mesh

SMALL = ["--override", "N=16", "--override", "M=16"]


def _run(tmp_path, scenario, *extra, sub="out"):
    """Run ``scenario`` into ``tmp_path / sub``; ``mesh=OFF`` names a small strip mesh."""
    if any(e.endswith("mesh=OFF") for e in extra):
        save_off(tmp_path / "strip.off", strip_mesh(4, 3))
        extra = [e.replace("mesh=OFF", f"mesh={tmp_path / 'strip.off'}") for e in extra]
    out = tmp_path / sub
    code = main([scenario, "--out", str(out), *extra])
    summary = None
    if (out / "summary.json").exists():
        summary = json.loads((out / "summary.json").read_text())
    return code, out, summary


def test_scenario_list_is_stable():
    assert SCENARIOS == (
        "dn-compute",
        "riccati-check",
        "evolve-check",
        "kernel-check",
        "bvp-headline",
        "layer-strip",
        "null-test",
        "oducp-probe",
        "conformal-check",
        "exhaustion",
        "global-march",
        "convergence-study",
    )


# Tiny passing config per scenario; the checks' default tolerances are set
# for the default sizes, so the two pairing checks get looser ones here.
TINY = {
    **{s: SMALL for s in SCENARIOS},
    "kernel-check": SMALL + ["--override", "tol=0.01"],
    "layer-strip": SMALL + ["--override", "tol=0.01"],
    "exhaustion": ["--override", "mesh_params=[6, 24]"],
    "convergence-study": ["--override", "levels=[[16, 16], [16, 32]]"],  # levels set N and M
}


class _Reads(dict):
    """A config that adds each key read from it to ``log``."""

    def __init__(self, cfg, log):
        super().__init__(cfg)
        self.log = log

    def __getitem__(self, key):
        self.log.add(key)
        return super().__getitem__(key)


# besides each scenario's TINY run: one run per value of each selector
# (geometry, convergence quantity, mesh source), giving the keys its row adds
SELECTOR_RUNS = {
    "rho": ("dn-compute", [*SMALL, "--override", "rho=0.3"]),
    "disk": ("dn-compute", [*SMALL, "--override", "geometry=disk"]),
    "T": ("dn-compute", [*SMALL, "--override", "geometry=flat-cylinder", "--override", "T=0.9"]),
    "q2": ("convergence-study", [*TINY["convergence-study"], "--override", 'q2={"kind": "zero"}']),
    "riccati": ("convergence-study", [*TINY["convergence-study"], "--override", "quantity=riccati"]),
    "evolve": ("convergence-study", [
        *TINY["convergence-study"], "--override", "quantity=evolve",
        "--override", 'boundary_data={"kind": "random", "seed": 3}',
    ]),
    "mesh": ("exhaustion", ["--override", "mesh=OFF"]),
}
READ_RUNS = {**{s: (s, TINY[s]) for s in SCENARIOS}, **SELECTOR_RUNS}


@pytest.mark.parametrize("run", READ_RUNS)
def test_a_run_reads_every_key_of_its_config(tmp_path, monkeypatch, run):
    # a typed key that no code reads is a key the run ignores; convergence-study
    # reads its keys on a per-level copy, so each copy records its reads as well
    scenario, extra = READ_RUNS[run]
    runner, defaults = _SCENARIOS[scenario]
    reads, typed = set(), []

    def recording(cfg, out):
        typed.append(set(cfg))
        return runner(_Reads(cfg, reads), out)

    monkeypatch.setitem(cli._SCENARIOS, scenario, (recording, defaults))
    for quantity, measure in cli._MEASURES.items():
        monkeypatch.setitem(cli._MEASURES, quantity, lambda cfg, m=measure: m(_Reads(cfg, reads)))
    code, _, _ = _run(tmp_path, scenario, *extra)
    assert code == 0
    assert typed and typed[0] - reads == set()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_scenario_passes_reruns_and_rejects_unknown_keys(tmp_path, scenario):
    code, out, summary = _run(tmp_path, scenario, *TINY[scenario], sub="a")
    assert code == 0
    assert set(summary) == {"scenario", "config", "results", "passed"}
    assert summary["scenario"] == scenario and summary["passed"] is True
    if scenario != "exhaustion":  # its summary carries the ordering wall time
        code, rerun, _ = _run(tmp_path, scenario, *TINY[scenario], sub="b")
        assert code == 0
        assert (out / "summary.json").read_bytes() == (rerun / "summary.json").read_bytes()
    code, _, summary = _run(tmp_path, scenario, *TINY[scenario], "--override", "wibble=3", sub="c")
    assert code == 2
    assert summary is None


def test_dn_compute_pass_and_artifacts(tmp_path):
    code, out, summary = _run(tmp_path, "dn-compute", *SMALL)
    assert code == 0
    assert summary["passed"] is True
    assert set(summary) == {"scenario", "config", "results", "passed"}
    assert summary["scenario"] == "dn-compute"
    for tag in ("boundary", "collar"):
        arr, side = read_matrix(out / f"lam_{tag}.evsq")
        assert arr.shape == (16, 16)
        assert side["geometry_hash"] == summary["results"]["geometry_hash"]
        assert side["kind"] == "slice-map"


def test_dn_compute_symmetry_gate_is_live(tmp_path):
    # a pivot of one leaf inverts to an exactly symmetric block, so N = 32 reads
    # 0.0; at N = 96 the Schur halving leaves the maps symmetric to round-off
    # (about 7e-18), not by construction, and the gate can fail
    code, _, summary = _run(tmp_path, "dn-compute", "--override", "N=96", sub="a")
    assert code == 0 and 0.0 < summary["results"]["symmetry_defect"] <= 1e-14
    code, _, summary = _run(
        tmp_path, "dn-compute", "--override", "N=96", "--override", "sym_tol=1e-18", sub="b"
    )
    assert code == 1 and summary["passed"] is False


def test_summary_is_deterministic(tmp_path):
    code1, out1, _ = _run(tmp_path, "bvp-headline", *SMALL, sub="a")
    code2, out2, _ = _run(tmp_path, "bvp-headline", *SMALL, sub="b")
    assert code1 == code2 == 0
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert (out1 / "recovered_difference.evsq").read_bytes() == (
        out2 / "recovered_difference.evsq"
    ).read_bytes()


def test_config_file_and_override_layering(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 16, "M": 16, "tol": 1e-2}))
    code, out, summary = _run(
        tmp_path, "riccati-check", "--config", str(cfg), "--override", "tol=0.5"
    )
    assert code == 0
    assert summary["config"]["tol"] == 0.5
    assert summary["config"]["N"] == 16


def test_dotted_override_reaches_nested_values(tmp_path):
    code, out, summary = _run(
        tmp_path,
        "bvp-headline",
        *SMALL,
        "--override",
        "q1.amplitude=1.0",
        "--override",
        "q1.kind=bump",
    )
    assert code == 0
    assert summary["config"]["q1"]["amplitude"] == 1.0


def test_failing_check_exits_one(tmp_path):
    code, out, summary = _run(tmp_path, "riccati-check", *SMALL, "--override", "tol=1e-30")
    assert code == 1
    assert summary["passed"] is False


def test_unknown_key_exits_two(tmp_path):
    code, out, summary = _run(tmp_path, "dn-compute", "--override", "wibble=3")
    assert code == 2
    assert summary is None


@pytest.mark.parametrize(
    "scenario", ["riccati-check", "bvp-headline", "conformal-check", "global-march"]
)
@pytest.mark.parametrize("override", ["tol=abc", "N=abc", "N=16.5", "tol=NaN", "N=[16]"])
def test_bad_numeric_value_exits_two(tmp_path, capsys, scenario, override):
    code, _, summary = _run(tmp_path, scenario, *SMALL, "--override", override)
    err = capsys.readouterr().err
    assert code == 2 and summary is None
    assert err.startswith("config error:") and "Traceback" not in err


# profile parameter -> (the profile that takes it, its default)
PROFILE_OF = {key: (name, v) for name, row in PROFILE_PARAMS.items() for key, v in row.items()}

# every (scenario, key) whose table default fixes a number type, and every
# profile parameter, which its profile's row types
TYPED_KEYS = [
    (scenario, key)
    for scenario, (_, defaults) in _SCENARIOS.items()
    for key, default in defaults.items()
    if type(default) in (int, float) or key in PROFILE_OF
]


@pytest.mark.parametrize("scenario, key", TYPED_KEYS)
def test_every_typed_key_rejects_a_value_of_another_type(tmp_path, capsys, scenario, key):
    if key in PROFILE_OF:
        geometry, default = PROFILE_OF[key]
        extra = ["--override", f"geometry={geometry}"]
    else:
        default, extra = _SCENARIOS[scenario][1][key], []
    code, _, summary = _run(tmp_path, scenario, *extra, "--override", f"{key}=abc")
    err = capsys.readouterr().err
    assert code == 2 and summary is None and "Traceback" not in err
    expected = f"config error: config entry {key!r} needs a finite {type(default).__name__}"
    assert err.startswith(expected)


@pytest.mark.parametrize(
    "scenario, key",
    [
        ("exhaustion", "time_budget"),
        ("dn-compute", "save_family"),
        ("oducp-probe", "expect_flag"),
        ("oducp-probe", "threshold"),
        ("kernel-check", "single_floor"),
        ("convergence-study", "rate_min"),
    ],
)
def test_a_key_that_no_caller_set_is_unknown(tmp_path, capsys, scenario, key):
    # dn-compute always writes both maps, oducp-probe passes on a raised flag at
    # probes.OFFDIAG_THRESHOLD, exhaustion on zero collisions alone, and the
    # kernel floor and the least rate are constants (each key was a setting)
    code, out, summary = _run(tmp_path, scenario, "--override", f"{key}=1")
    err = capsys.readouterr().err
    assert code == 2 and summary is None and not out.exists()
    assert err.startswith(f"config error: unknown config keys for {scenario}: {key}")


@pytest.mark.parametrize(
    "scenario, override",
    [
        ("convergence-study", "levels=[[16, 16], [16]]"),
        ("convergence-study", "levels=16"),
        ("evolve-check", 'boundary_data={"kind": "mode", "k": "x"}'),
        ("evolve-check", "boundary_data=5"),
        ("conformal-check", 'gamma={"kind": "poly", "coeffs": [1, "x"]}'),
        ("dn-compute", 'q1={"kind": "bump", "width": "x"}'),
        ("dn-compute", 'q1={"kind": "bump", "amplitude": "x"}'),
        # not a key: the ambient dimension is the constant probes.AMBIENT_DIM (exit 2, unknown)
        ("oducp-probe", "ambient_dim=1"),
        ("oducp-probe", "ambient_dim=-3"),
        ("conformal-check", "modes_max=-1"),
        ("conformal-check", 'gamma={"kind": "poly", "coeffs": []}'),
        ("convergence-study", "levels=[]"),
        ("convergence-study", "levels=[[16, 16]]"),
        ("dn-compute", "q1=NaN"),
        ("dn-compute", "q1=true"),
        ("dn-compute", 'q1={"kind": "constant", "value": -Infinity}'),
        ("dn-compute", 'q1={"kind": "bump", "amplitude": Infinity}'),
        ("dn-compute", 'q1={"kind": "bump", "t0": NaN}'),
        ("global-march", "q1=NaN"),
        ("conformal-check", 'gamma={"kind": "exp", "rate": 1000}'),
    ],
)
def test_bad_nested_numeric_value_exits_two(tmp_path, capsys, scenario, override):
    size = [] if scenario == "convergence-study" else SMALL  # its levels set N and M
    code, _, summary = _run(tmp_path, scenario, *size, "--override", override)
    assert code == 2 and summary is None
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize(
    "scenario, overrides, key",
    [
        ("bvp-headline", ['q1={"kind": "bump", "amplitud": 5}'], "amplitud"),
        ("kernel-check", ['boundary_data={"kind": "mode", "K": 3}'], "K"),
        ("conformal-check", ['gamma={"kind": "exp", "rte": 3}'], "rte"),
        ("convergence-study", ["N=64"], "N"),
        ("dn-compute", ["dim=1"], "dim"),
        ("bvp-headline", ["T=0.5"], "T"),
        ("dn-compute", ["geometry=disk", "rho=0.9"], "rho"),
        ("dn-compute", ["geometry=flat-cylinder", "rho=0.3"], "rho"),
        ("riccati-check", ["geometry=disk", "T=0.8"], "T"),
        ("global-march", ["T=0.5"], "T"),
        ("convergence-study", ["quantity=riccati", 'q2={"kind": "zero"}'], "q2"),
        (
            "convergence-study",
            ["quantity=headline", 'boundary_data={"kind": "random", "seed": 5}'],
            "boundary_data",
        ),
        ("exhaustion", ["mesh=OFF", "mesh_kind=disk"], "mesh_kind"),
        ("exhaustion", ["mesh=OFF", "mesh_params=[6, 24]"], "mesh_params"),
    ],
    ids=[
        "q1", "boundary_data", "gamma", "N", "dim", "T-annulus", "rho-disk", "rho-flat-cylinder",
        "T-disk", "T-global-march", "q2-riccati", "boundary_data-headline", "mesh_kind-mesh",
        "mesh_params-mesh",
    ],
)
def test_a_key_the_run_would_ignore_exits_two(tmp_path, capsys, scenario, overrides, key):
    # each run ignored the key and passed on the value it meant to change (this was exit 0)
    code, _, summary = _run(tmp_path, scenario, *(f"--override={o}" for o in overrides))
    assert code == 2 and summary is None
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown") and f": {key}" in err


def test_conformal_check_takes_dim(tmp_path):
    # conformal-check alone passes dim to the geometry: the flat torus has 2-D modes
    overrides = ["geometry=flat-cylinder", "dim=2", "N=8", "M=16", "modes_max=2"]
    code, _, summary = _run(tmp_path, "conformal-check", *(f"--override={o}" for o in overrides))
    assert code == 0 and summary["config"]["dim"] == 2
    assert summary["results"]["modes_checked"] == 4  # (0,0), (0,1), (0,2), (1,1)


@pytest.mark.parametrize(
    "scenario, key, low", [("exhaustion", "samples_per_cell", 4), ("global-march", "max_windows", 1)]
)
@pytest.mark.parametrize("below", [1, 4])
def test_value_below_its_minimum_exits_two(tmp_path, capsys, scenario, key, low, below):
    # too few push-through samples cannot cover a cell (this was exit 3), and
    # no march window can never pass (this was exit 1): both are bad configs
    code, _, summary = _run(tmp_path, scenario, "--override", f"{key}={low - below}")
    assert code == 2 and summary is None
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config entry '{key}' needs a value >= {low}")


@pytest.mark.parametrize("eps", ["2", "0.7"])
def test_global_march_without_a_window_exits_two(tmp_path, capsys, eps):
    # past the cap, or too close to it for two collar steps (this was exit 1)
    code, _, summary = _run(tmp_path, "global-march", *SMALL, "--override", f"eps={eps}")
    assert code == 2 and summary is None
    assert capsys.readouterr().err.startswith("config error: global-march has no window")


@pytest.mark.parametrize("M", [0, -4])
def test_global_march_without_a_collar_step_exits_two(tmp_path, capsys, M):
    # the window check divided by M before the geometry refused it (this was a ZeroDivisionError)
    code, _, summary = _run(tmp_path, "global-march", "--override", f"M={M}")
    err = capsys.readouterr().err
    assert code == 2 and summary is None
    assert err.startswith("config error: global-march has no window") and "Traceback" not in err


@pytest.mark.parametrize(
    "scenario, extra",
    [
        ("global-march", [*SMALL, "--override", "eps=2"]),
        ("dn-compute", ["--override", "geometry=sphere"]),
    ],
)
def test_config_error_in_a_runner_leaves_no_out_directory(tmp_path, scenario, extra):
    code, out, _ = _run(tmp_path, scenario, *extra)
    assert code == 2 and not out.exists()
    out.mkdir()  # a directory the call did not make stays
    code, out, _ = _run(tmp_path, scenario, *extra)
    assert code == 2 and out.is_dir()


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_an_out_that_cannot_be_a_directory_exits_two(tmp_path, capsys, out):
    # an existing file, or a path under one (this was exit 1 with a traceback)
    (tmp_path / "file").write_text("kept")
    code = main(["null-test", *SMALL, "--out", str(tmp_path / out)])
    err = capsys.readouterr().err
    assert code == 2 and (tmp_path / "file").read_text() == "kept"
    assert err.startswith("config error: cannot make output directory") and "Traceback" not in err


def test_bad_config_file_exits_two(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00\x80")
    for path in (cfg, tmp_path / "missing.json", tmp_path, binary):
        assert main(["dn-compute", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err


def test_invalid_geometry_exits_two(tmp_path):
    code, _, _ = _run(tmp_path, "dn-compute", "--override", "N=7")
    assert code == 2
    code, _, _ = _run(tmp_path, "dn-compute", "--override", "geometry=torus")
    assert code == 2


def test_malformed_potential_exits_two(tmp_path):
    # an unquoted override value falls back to a raw string
    code, _, _ = _run(tmp_path, "dn-compute", "--override", "q1=constant")
    assert code == 2


def test_numerical_failure_exits_three(tmp_path, capsys):
    # resonant constant potential: the elimination pivot goes singular in the
    # chain's theta-constant run, which covers the whole grid here
    T, eps, M, N = 0.8, 0.4, 32, 16
    h = eps / M
    K = M + 1 + round((T - eps) / h)
    q_res = -(2.0 / h**2) * (1.0 - np.cos(np.pi / (K - 1)))
    code, out, summary = _run(
        tmp_path,
        "dn-compute",
        "--override",
        "geometry=flat-cylinder",
        "--override",
        f"T={T}",
        "--override",
        f"eps={eps}",
        "--override",
        f"M={M}",
        "--override",
        f"N={N}",
        "--override",
        f'q1={{"kind": "constant", "value": {q_res}}}',
    )
    assert code == 3
    assert summary is None
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: Dirichlet eigenvalue collision near depth")
    assert "propagation norm" in err


def test_null_scenario(tmp_path):
    code, out, summary = _run(tmp_path, "null-test", *SMALL)
    assert code == 0
    assert summary["results"]["max_abs"] == 0.0


def test_null_test_rejects_a_tolerance_key(tmp_path):
    # the null threshold is fixed at 1e-10 of the map norm; a key nothing reads is refused
    code, out, summary = _run(tmp_path, "null-test", *SMALL, "--override", "tol_factor=2")
    assert code == 2
    assert summary is None


def test_probe_scenario_writes_shells(tmp_path):
    code, out, summary = _run(tmp_path, "oducp-probe", *SMALL, "--override", "N=32")
    assert code == 0
    assert summary["results"]["flag"] is True
    lines = (out / "shells.csv").read_text().strip().splitlines()
    assert lines[0] == "shell_lo,shell_hi,mass"
    assert len(lines) == 1 + 3  # N=32 resolves three shells


def test_kernel_scenario(tmp_path):
    code, out, summary = _run(
        tmp_path, "kernel-check", *SMALL, "--override", "M=32", "--override", "tol=0.05"
    )
    assert code == 0
    res = summary["results"]["residuals"]
    assert res["expanded-single"] > res["factorized"]


def test_layer_strip_scenario(tmp_path):
    code, out, summary = _run(tmp_path, "layer-strip", *SMALL, "--override", "M=32")
    assert code == 0
    assert summary["results"]["rel_gap"] <= summary["results"]["tol"]


@pytest.mark.parametrize("scenario", ["kernel-check", "layer-strip"])
@pytest.mark.parametrize("geometry", ["annulus", "disk", "flat-cylinder"])
def test_pairing_checks_hold_two_chain_arrays_at_most(scenario, geometry):
    # each family is an (M+2, N, N) chain; the elimination's own working set read 30-36
    # slices more, and a third field-sized array (the materialized rank-one field, or a
    # second family beside the first's interior solve) 90-97 more
    import tracemalloc

    N, M = 32, 64
    runner, defaults = _SCENARIOS[scenario]
    cfg = cli._typed(scenario, defaults, {"geometry": geometry, "N": N, "M": M})
    runner(cfg, None)  # first-call caches stay out of the peak
    tracemalloc.start()
    try:
        runner(cfg, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (2 * (M + 2) + 48) * N * N * 8


@pytest.mark.parametrize("value", ["null", "{}"])
def test_empty_second_boundary_data_takes_its_own_default(tmp_path, value):
    # null and {} stand for boundary_data2's default, not for boundary_data's
    code, _, default = _run(tmp_path, "kernel-check", *TINY["kernel-check"], sub="a")
    empty = ["--override", f"boundary_data2={value}"]
    code2, _, summary = _run(tmp_path, "kernel-check", *TINY["kernel-check"], *empty, sub="b")
    assert code == code2 == 0
    assert summary["results"] == default["results"]


def test_conformal_scenario(tmp_path):
    code, out, summary = _run(
        tmp_path,
        "conformal-check",
        *SMALL,
        "--override",
        "geometry=flat-cylinder",
        "--override",
        "T=0.9",
        "--override",
        "M=64",
        "--override",
        'gamma={"kind": "exp", "rate": 2.0}',
    )
    assert code == 0
    assert summary["results"]["max_rel_error"] <= summary["results"]["tol"]


def test_exhaustion_scenario(tmp_path):
    code, out, summary = _run(
        tmp_path,
        "exhaustion",
        "--override",
        "mesh_kind=annulus",
        "--override",
        "mesh_params=[6, 24]",
    )
    assert code == 0
    assert summary["results"]["collisions"] == 0
    assert summary["results"]["triangles"] == 2 * 6 * 24


def test_exhaustion_without_keys_orders_the_default_annulus(tmp_path, monkeypatch):
    calls = []
    maker, minima, triangles = cli._MESH_MAKERS["annulus"]
    small = (lambda *p: calls.append(p) or maker(6, 24), minima, triangles)
    monkeypatch.setitem(cli._MESH_MAKERS, "annulus", small)
    code, _, summary = _run(tmp_path, "exhaustion")
    assert code == 0 and calls == [(50, 100)]


@pytest.mark.parametrize(
    "kind, params", [("annulus", [3, 5]), ("disk", [1, 4]), ("disk", [3, 5]), ("strip", [2, 7])],
)
def test_mesh_triangle_counts_are_the_makers(kind, params):
    maker, _, triangles = cli._MESH_MAKERS[kind]
    assert triangles(*params) == maker(*params).n_triangles


@pytest.mark.parametrize(
    "kind, params",
    [("annulus", [512, 257]), ("disk", [257, 512]), ("strip", [257, 512]), ("sphere", [8]),
     ("sphere", [2**63])],
)
def test_exhaustion_refuses_a_mesh_above_the_bound_before_building_it(
    tmp_path, capsys, monkeypatch, kind, params
):
    built = []
    if kind == "sphere":
        # closed at any size, so it could only exit 3: refused as no mesh kind, never built
        assert "sphere" not in cli._MESH_MAKERS
        refusal = "unknown mesh kind 'sphere'"
    else:
        _, minima, triangles = cli._MESH_MAKERS[kind]
        monkeypatch.setitem(cli._MESH_MAKERS, kind, (lambda *p: built.append(p), minima, triangles))
        refusal = (f"problem too large: mesh_kind '{kind}' with mesh_params {params} makes more "
                   f"than {cli._MAX_TRIANGLES} triangles")
    overrides = ["--override", f"mesh_kind={kind}", "--override", f"mesh_params={params}"]
    code, _, summary = _run(tmp_path, "exhaustion", *overrides)
    assert code == 2 and summary is None and built == []
    assert capsys.readouterr().err.startswith(f"config error: {refusal}")


def test_exhaustion_builds_a_mesh_at_the_bound(monkeypatch):
    # 2 * 512 * 256 = 2**18 triangles: the bound itself is allowed
    _, minima, triangles = cli._MESH_MAKERS["strip"]
    assert triangles(512, 256) == cli._MAX_TRIANGLES
    built = []

    def tiny(*params):
        built.append(params)
        return strip_mesh(2, 2)

    monkeypatch.setitem(cli._MESH_MAKERS, "strip", (tiny, minima, triangles))
    results, _ = cli._run_exhaustion(
        cli._typed("exhaustion", _SCENARIOS["exhaustion"][1],
                   {"mesh_kind": "strip", "mesh_params": [512, 256]}), None)
    assert built == [(512, 256)] and results["triangles"] == 8


def test_exhaustion_refuses_a_sampling_density_above_the_pair_bound(tmp_path, capsys, monkeypatch):
    # 10000 triangles of the default annulus at 100000 samples a cell: refused before ordering
    monkeypatch.setattr(cli, "exhaustion_order", lambda mesh: pytest.fail("ordered"))
    code, out, summary = _run(tmp_path, "exhaustion", "--override", "samples_per_cell=100000")
    assert code == 2 and summary is None and not out.exists()
    assert capsys.readouterr().err.startswith(
        "config error: problem too large: samples_per_cell 100000 on 10000 triangles measures "
        f"more than {cli._MAX_SAMPLE_PAIRS} sample pairs"
    )


TORUS = ["--override", "geometry=flat-cylinder", "--override", "dim=2"]


@pytest.mark.parametrize(
    "extra, modes",
    [([], "9223372036854775807"), ([], "18446744073709551615"), (TORUS, "100000")],
    ids=["2**63-1", "2**64-1", "torus"],
)
def test_conformal_check_refuses_a_mode_count_above_the_bound(tmp_path, capsys, monkeypatch,
                                                              extra, modes):
    # (modes_max + 1) ** dim is bounded before the modes are listed: a list of 2**63
    # modes overflows, and the torus list grows with modes_max ** 2
    monkeypatch.setattr(cli, "conformal_identity_check", lambda *a: pytest.fail("swept"))
    overrides = [*extra, "--override", f"modes_max={modes}"]
    code, out, summary = _run(tmp_path, "conformal-check", *overrides)
    err = capsys.readouterr().err
    assert code == 2 and summary is None and not out.exists() and "Traceback" not in err
    dim = 2 if extra else 1
    assert err.startswith(
        f"config error: problem too large: modes_max {modes} with dim={dim} lists more than "
        f"{cli._MAX_MODES} candidate modes"
    )


class _NoArrays:
    def __getattr__(self, name):
        pytest.fail(f"np.{name} reached")


@pytest.mark.parametrize(
    "scenario, extra, N",
    [("dn-compute", [], "9223372036854775806"), ("dn-compute", [], "18446744073709551614"),
     ("conformal-check", TORUS, "256")],
)
def test_a_boundary_node_count_above_the_bound_is_refused(tmp_path, capsys, monkeypatch,
                                                          scenario, extra, N):
    # N ** dim is bounded before build_warped_geometry allocates its grids; on the torus
    # N=256 gives 65536 nodes
    monkeypatch.setattr("evosq.geometry.np", _NoArrays())
    code, out, summary = _run(tmp_path, scenario, *extra, "--override", f"N={N}")
    err = capsys.readouterr().err
    assert code == 2 and summary is None and not out.exists() and "Traceback" not in err
    dim = 2 if extra else 1
    assert err.startswith(
        f"config error: problem too large: N={N} with dim={dim} gives more than "
        f"{MAX_BOUNDARY_NODES} boundary nodes"
    )


def test_exhaustion_of_a_collapsed_mesh_fails_with_every_pair_collided(tmp_path):
    # all vertices within 1e-12 of the origin: the 105 pairs of each of 36 growth steps collide
    base = disk_mesh(3, 12)
    save_off(tmp_path / "collapsed.off", SurfaceMesh(base.vertices * 1e-12, base.triangles))
    code, _, summary = _run(tmp_path, "exhaustion", "--override", f"mesh={tmp_path / 'collapsed.off'}")
    assert code == 1
    assert summary["results"]["growth_steps"] == 36
    assert summary["results"]["collisions"] == 105 * 36


def test_exhaustion_rejects_closed_mesh(tmp_path):
    save_off(tmp_path / "sphere.off", sphere_mesh(1))
    code, out, summary = _run(tmp_path, "exhaustion", "--override", f"mesh={tmp_path / 'sphere.off'}")
    assert code == 3


@pytest.mark.parametrize("params", ["abc", '[2, "x"]', "[2]", "[-1, 4]", "[3, 5, 7]"])
def test_exhaustion_rejects_bad_mesh_params(tmp_path, capsys, params):
    code, _, summary = _run(tmp_path, "exhaustion", "--override", f"mesh_params={params}")
    err = capsys.readouterr().err
    assert code == 2 and summary is None
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("kind", ["annulus", "disk"])
@pytest.mark.parametrize("params", ["[1, 2]", "[3, 1]"])
def test_exhaustion_rejects_too_few_sectors(tmp_path, capsys, kind, params):
    # fewer than 3 sectors make a closed or degenerate mesh (this was exit 3)
    overrides = ["--override", f"mesh_kind={kind}", "--override", f"mesh_params={params}"]
    code, _, summary = _run(tmp_path, "exhaustion", *overrides)
    assert code == 2 and summary is None
    err = capsys.readouterr().err
    assert err.startswith(f"config error: mesh_params for mesh_kind '{kind}' needs ints >= [1, 3]")


@pytest.mark.parametrize("kind", ["torus", '["annulus"]', '{"a": 1}'])
def test_exhaustion_rejects_an_unknown_mesh_kind(tmp_path, capsys, kind):
    code, _, summary = _run(tmp_path, "exhaustion", "--override", f"mesh_kind={kind}")
    err = capsys.readouterr().err
    assert code == 2 and summary is None
    assert err.startswith("config error: unknown mesh kind") and "Traceback" not in err


def test_exhaustion_reads_off_file(tmp_path):
    code, out, summary = _run(tmp_path, "exhaustion", "--override", "mesh=OFF")
    assert code == 0
    assert summary["results"]["triangles"] == 24


@pytest.mark.parametrize("mesh", ["null", "5", "[1]"])
def test_exhaustion_rejects_a_mesh_that_is_not_a_path(tmp_path, capsys, mesh):
    code, _, summary = _run(tmp_path, "exhaustion", "--override", f"mesh={mesh}")
    err = capsys.readouterr().err
    assert code == 2 and summary is None
    assert err.startswith("config error: mesh must be a path string")


@pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
def test_exhaustion_unreadable_mesh_exits_three(tmp_path, capsys, kind):
    path = {"missing": tmp_path / "none.off", "directory": tmp_path, "binary": tmp_path / "b.off"}
    path["binary"].write_bytes(b"\xff\xfe\x00\x80")
    code, _, summary = _run(tmp_path, "exhaustion", "--override", f"mesh={path[kind]}")
    err = capsys.readouterr().err
    assert code == 3 and summary is None
    assert err.startswith("numerical failure:") and "unreadable mesh file" in err


def test_exhaustion_non_finite_vertex_exits_three(tmp_path, capsys):
    from evosq.meshes import disk_mesh

    p = tmp_path / "nan.off"
    save_off(p, disk_mesh(3, 8))
    lines = p.read_text().splitlines()
    lines[2], lines[3] = "nan nan 0", "inf 1 0"  # the first two vertex lines
    p.write_text("\n".join(lines) + "\n")
    code, _, summary = _run(tmp_path, "exhaustion", "--override", f"mesh={p}")
    err = capsys.readouterr().err
    assert code == 3 and summary is None
    assert err.startswith("numerical failure:") and "finite" in err


@pytest.mark.parametrize(
    "text",
    [
        "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n",  # index beyond int64
        "OFF\n-1 1 0\n3 0 1 2\n",  # not an empty vertex block
        "OFF\n3 -1 0\n0 0 0\n1 0 0\n0 1 0\n",  # not a surface without faces
    ],
)
def test_exhaustion_malformed_off_exits_three(tmp_path, capsys, text):
    p = tmp_path / "bad.off"
    p.write_text(text)
    code, _, summary = _run(tmp_path, "exhaustion", "--override", f"mesh={p}")
    err = capsys.readouterr().err
    assert code == 3 and summary is None
    assert err.startswith("numerical failure:") and "malformed OFF data" in err


def test_exhaustion_of_an_off_file_without_vertices_exits_three(tmp_path, capsys):
    # this was reported as a vertex-shape error
    p = tmp_path / "empty.off"
    p.write_text("OFF\n0 0 0\n")
    code, _, summary = _run(tmp_path, "exhaustion", "--override", f"mesh={p}")
    err = capsys.readouterr().err
    assert code == 3 and summary is None
    assert err.startswith("numerical failure:") and "mesh has no triangles" in err


def test_exhaustion_of_an_off_file_without_faces_exits_three(tmp_path, capsys):
    # this was reported as a closed surface
    p = tmp_path / "empty.off"
    p.write_text("OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n")
    code, _, summary = _run(tmp_path, "exhaustion", "--override", f"mesh={p}")
    err = capsys.readouterr().err
    assert code == 3 and summary is None
    assert err.startswith("numerical failure:") and "mesh has no triangles" in err


def test_tiny_eps_depth_grid_is_a_config_error(tmp_path, capsys):
    code, _, summary = _run(tmp_path, "dn-compute", *SMALL, "--override", "eps=1e-9")
    err = capsys.readouterr().err
    assert code == 2 and summary is None
    assert err.startswith("config error:") and "eps=1e-09" in err and "M=16" in err


def test_conformal_check_runs_without_scipy(tmp_path):
    # the package needs numpy alone: a conformal run (the one that samples a
    # tabulated potential) must not import scipy
    script = (
        "import sys\n"
        "from evosq.cli import main\n"
        "code = main(['conformal-check', '--out', sys.argv[1], '--override', 'geometry=flat-cylinder',\n"
        "             '--override', 'dim=2', '--override', 'N=8', '--override', 'M=16',\n"
        "             '--override', 'modes_max=2'])\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(code, loaded)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_an_int_beyond_64_bits_names_the_range(tmp_path, capsys):
    seed = 1180591620717411303424  # 2**70
    code, _, summary = _run(
        tmp_path, "evolve-check", "--override", f'boundary_data={{"kind":"random","seed":{seed}}}'
    )
    assert code == 2 and summary is None
    assert capsys.readouterr().err == (
        f"config error: config entry 'seed' needs an int in [-2**63, 2**64), got {seed}\n"
    )


def test_an_overflowing_run_explains_itself_in_one_line(tmp_path):
    # the maps overflow in the transport; numpy's warnings must not reach stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "evosq.cli", "bvp-headline", "--out", str(tmp_path / "out"),
         "--override", "N=16", "--override", "M=16",
         "--override", 'q1={"kind":"bump","amplitude":1e160}'],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("numerical failure: ")


def test_an_indefinite_pivot_writes_the_same_bytes_under_one_and_two_blas_threads(tmp_path):
    # a bump of amplitude -120 sends a dense pivot past the first Dirichlet eigenvalue:
    # its leaf Cholesky fails and Gauss-Jordan inverts it, in numpy row operations alone
    script = (
        "import sys\n"
        "from evosq import dnmap\n"
        "from evosq.cli import main\n"
        "calls = []\n"
        "gauss_jordan = dnmap._gauss_jordan\n"
        "dnmap._gauss_jordan = lambda a, out: calls.append(1) or gauss_jordan(a, out)\n"
        "code = main(['dn-compute', '--out', sys.argv[1], '--override', 'N=128', '--override', 'M=64',\n"
        "             '--override', 'q1={\"kind\": \"bump\", \"amplitude\": -120, \"theta0\": 1,'\n"
        "             ' \"t0\": 0.1, \"width\": 0.4}'])\n"
        "print(code, len(calls))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / threads)],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        code, calls = map(int, proc.stdout.splitlines()[-1].split())
        assert code == 0 and calls > 0
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_global_march_reaches_cap(tmp_path):
    code, out, summary = _run(
        tmp_path,
        "global-march",
        *SMALL,
        "--override",
        "geometry=flat-cylinder",
        "--override",
        "T=1.0",
    )
    assert code == 0
    res = summary["results"]
    assert res["cap_reached"] is True
    assert len(res["windows"]) >= 2
    assert all(w["passed"] for w in res["windows"])
    # windows tile the depth without gaps
    for w, nxt in zip(res["windows"], res["windows"][1:]):
        assert nxt["start"] == pytest.approx(w["end"])


def test_a_problem_too_large_for_the_host_exits_2_and_leaves_no_directory(tmp_path, monkeypatch, capsys):
    def too_large(cfg, out):  # what numpy raises for an (N, N) array past the host's memory
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)")

    monkeypatch.setitem(cli._SCENARIOS, "null-test", (too_large, _SCENARIOS["null-test"][1]))
    code, out, summary = _run(tmp_path, "null-test", "--override", "N=1000000", sub="new")
    assert code == 2 and summary is None and not out.exists()
    assert "config error: problem too large for this host: Unable to allocate" in capsys.readouterr().err


@pytest.mark.parametrize("geometry, windows", [("annulus", 2), ("disk", 3), ("flat-cylinder", 3)])
def test_global_march_computes_one_chain_per_family(tmp_path, monkeypatch, geometry, windows):
    # every window reads a row range of one family per potential; the null
    # test pairs the q1 window with itself instead of eliminating it again
    from evosq import dnmap

    calls = []
    chain = dnmap.propagation_chain
    monkeypatch.setattr(dnmap, "propagation_chain", lambda *a: calls.append(a) or chain(*a))
    code, _, summary = _run(tmp_path, "global-march", "--override", f"geometry={geometry}")
    assert code == 0 and len(summary["results"]["windows"]) == windows
    assert len(calls) == 2


# -- the march as it ran re-based, kept as a reference for the row-range windows


@dataclass(frozen=True)
class _ShiftedProfile:
    """``base`` re-based at depth ``shift``: ``r(t) = 1 + slope * (t + shift)`` on ``[0, T - shift]``."""

    base: Profile
    shift: float

    @property
    def T(self):
        return self.base.T - self.shift

    @property
    def cap(self):
        return self.base.cap

    def r(self, t):
        return 1.0 + self.base.slope * (np.asarray(t, dtype=float) + self.shift)

    def rp(self, t):
        return self.base.rp(t)

    def descriptor(self):
        return self.base.descriptor() + ("shift", round(self.shift, 12))


def _shifted_potential(q, depth):
    if isinstance(q, BumpPotential):
        return BumpPotential(q.amplitude, q.theta0, q.t0 - depth, q.width)
    return q  # zero and constant potentials do not depend on depth


def _rebased_march(cfg):
    """Windows and their map pairs from a fresh geometry and two fresh families per window."""
    profile = cli._profile(cfg)
    eps, M = cfg["eps"], cfg["M"]
    q1, q2 = make_potential(cfg["q1"]), make_potential(cfg["q2"])
    windows, maps, depth = [], [], 0.0
    while len(windows) < cfg["max_windows"] and (profile.T - depth - eps) * M > 2.0 * eps:
        g = build_warped_geometry(_ShiftedProfile(profile, depth), N=cfg["N"], M=M, eps=eps)
        fam1, fam2 = (compute_dn_family(g, _shifted_potential(q, depth)) for q in (q1, q2))
        check = dn_recovery_check(fam1, fam2)
        nul = null_test(fam1, fam1)
        ok = check["rel_error"] <= cfg["tol"] and nul["passed"]
        windows.append({
            "start": depth, "end": depth + eps, "rel_error": check["rel_error"],
            "null_ok": bool(nul["passed"]), "passed": bool(ok),
        })
        maps.append((fam1.lams, fam2.lams))
        if not ok:
            break
        depth += eps
    return windows, maps


def _row_range_march(cfg, monkeypatch):
    """The CLI march's windows, and the map pair each window's recovery check read."""
    maps, check = [], cli.dn_recovery_check

    def recording(fam1, fam2):
        maps.append((fam1.lams, fam2.lams))
        return check(fam1, fam2)

    monkeypatch.setattr(cli, "dn_recovery_check", recording)
    results, _ = cli._run_march(cfg, None)
    return results["windows"], maps


_MARCH_PAIRS = {
    "constants": {"q1": {"kind": "constant", "value": 1.5}, "q2": {"kind": "zero"}},
    "bumps": {"q1": cli._DEFAULT_Q1, "q2": cli._DEFAULT_Q2},
}


def _march_cfg(geometry, pair, **keys):
    defaults = _SCENARIOS["global-march"][1]
    return {**{k: v for k, v in defaults.items() if v is not None}, "geometry": geometry,
            **_MARCH_PAIRS[pair], **keys}


@pytest.mark.parametrize("pair", sorted(_MARCH_PAIRS))
@pytest.mark.parametrize("geometry", ["annulus", "disk", "flat-cylinder"])
def test_row_range_march_matches_the_rebased_march(geometry, pair, monkeypatch):
    # the annulus's windows share their tail grids with the re-based ones, so
    # only CG noise moves rel_error; on the disk and the flat cylinder each
    # window above the last had its own deep tail step, which moves its maps
    # by up to 1.6e-5 and its rel_error by up to 7.3e-7 relative
    cfg = _march_cfg(geometry, pair)
    want, _ = _rebased_march(cfg)
    got, _ = _row_range_march(cfg, monkeypatch)
    assert len(got) == len(want) >= 2
    for i, (w, v) in enumerate(zip(want, got)):
        assert {k: w[k] for k in w if k != "rel_error"} == {k: v[k] for k in v if k != "rel_error"}
        bound = 1e-8 if geometry == "annulus" or i == len(want) - 1 else 5e-6
        assert abs(v["rel_error"] - w["rel_error"]) <= bound * w["rel_error"]


@pytest.mark.parametrize("pair", sorted(_MARCH_PAIRS))
def test_row_range_march_where_every_tail_coincides(pair, monkeypatch):
    # cap T = 4 eps: every re-based window's tail is the rest of the one grid
    cfg = _march_cfg("flat-cylinder", pair, T=1.2)
    want, want_maps = _rebased_march(cfg)
    got, got_maps = _row_range_march(cfg, monkeypatch)
    assert [w["passed"] for w in want] == [v["passed"] for v in got] == [True] * 3
    for w, v in zip(want_maps, got_maps):
        for lw, lv in zip(w, v):
            assert np.abs(lv - lw).max() <= 1e-12 * np.abs(lw).max()


def test_null_test_computes_one_chain(tmp_path, monkeypatch):
    # the null test pairs the q1 family with itself instead of eliminating it twice
    from evosq import dnmap

    calls = []
    chain = dnmap.propagation_chain
    monkeypatch.setattr(dnmap, "propagation_chain", lambda *a: calls.append(a) or chain(*a))
    code, _, summary = _run(tmp_path, "null-test", *SMALL)
    assert code == 0 and summary["results"]["max_abs"] == 0.0
    assert len(calls) == 1


def test_evolve_convergence_study_takes_boundary_data(tmp_path):
    levels = ["--override", "levels=[[16, 16], [16, 32]]", "--override", "quantity=evolve"]
    code, _, default = _run(tmp_path, "convergence-study", *levels, sub="a")
    assert code == 0
    random = '{"kind": "random", "seed": 3}'
    code, _, summary = _run(
        tmp_path, "convergence-study", *levels, "--override", f"boundary_data={random}", sub="b"
    )
    assert code == 0
    assert summary["config"]["boundary_data"] == {"kind": "random", "seed": 3}
    errors, default_errors = summary["results"]["errors"], default["results"]["errors"]
    assert all(e > 0 for e in errors) and errors != default_errors


def test_convergence_study_writes_rates(tmp_path):
    code, out, summary = _run(
        tmp_path,
        "convergence-study",
        "--override",
        "levels=[[16, 16], [16, 32], [16, 64]]",
        "--override",
        "quantity=evolve",
    )
    assert code == 0
    assert summary["results"]["rate"] >= summary["results"]["rate_min"]
    lines = (out / "rates.csv").read_text().strip().splitlines()
    assert lines[0] == "level,N,M,error"
    assert len(lines) == 4


# default-width bumps at which the N=16, M=16, eps=0.3 Dirichlet problem is
# singular (found by bisection on the pole of Lam(0)): the chain must exit 3
_RESONANT = {"annulus": -1562.2369384765625, "disk": -1556.6102294921875,
             "flat-cylinder": -1527.160888671875}
# a bump just short of the annulus pole: Lam(0) has an eigenvalue of -1.2e8
_INDEFINITE = -1562.23681640625


@pytest.mark.parametrize(
    "amplitude, message, most",
    [
        (_INDEFINITE, "(backward step to node 9): p.Ap = -1.33e+06", 60),
        (1e160, "(backward step to node 13): p.Ap = nan", 5),
    ],
    ids=["indefinite", "overflow"],
)
def test_an_implicit_step_that_is_not_positive_definite_exits_three(
    tmp_path, capsys, monkeypatch, amplitude, message, most
):
    # the indefinite step converged to a wrong answer (this was exit 1 with
    # rel_error 0.9999996); the overflowed one iterated on NaN (1000 applies)
    applies = []
    apply = PairOperator.apply
    monkeypatch.setattr(
        PairOperator, "apply", lambda op, j, W: applies.append(j) or apply(op, j, W)
    )
    q1 = json.dumps({"kind": "bump", "amplitude": amplitude})
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, summary = _run(tmp_path, "bvp-headline", *SMALL, "--override", f"q1={q1}")
    err = capsys.readouterr().err
    assert code == 3 and summary is None
    assert err == f"numerical failure: implicit step is not positive definite {message}\n"
    assert len(applies) <= most


def test_null_test_on_a_map_near_1e154_passes(tmp_path):
    # the map norm is finite, but its unscaled sum of squares overflowed (this was exit 3)
    overrides = ["N=8", "M=8", "eps=0.5", 'q1={"kind": "bump", "amplitude": 4.29e155}']
    code, _, summary = _run(tmp_path, "null-test", *(f"--override={o}" for o in overrides))
    assert code == 0 and summary["results"]["scale"] == 1.340625e154


# -- override fuzz of the transport's callers -----------------------------------

_AMPLITUDES = st.one_of(
    st.floats(-1e4, 1e4), st.sampled_from(sorted([*_RESONANT.values(), _INDEFINITE])), st.floats()
)


def _refuse_constant(name):
    raise AssertionError(f"summary.json holds {name}")


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    scenario=st.sampled_from(["null-test", "bvp-headline"]),
    geometry=st.sampled_from(sorted(_RESONANT)),
    N=st.one_of(st.sampled_from([8, 10, 12, 14, 16]), st.integers(0, 16)),
    M=st.one_of(st.integers(8, 16), st.integers(0, 16)),
    eps=st.one_of(
        st.floats(0.02, 0.7), st.floats(-0.5, 2.0), st.sampled_from([0.0, 0.3, float("inf")])
    ),
    a1=_AMPLITUDES,
    a2=_AMPLITUDES,
)
@example("bvp-headline", "annulus", 16, 16, 0.3, _RESONANT["annulus"], -2.0)
@example("null-test", "flat-cylinder", 16, 16, 0.3, _RESONANT["flat-cylinder"], 0.0)
@example("null-test", "annulus", 8, 8, 0.5, 4.290498537581631e155, 0.0)  # the map norm overflows
@example("bvp-headline", "annulus", 16, 16, 0.3, _INDEFINITE, -2.0)
@example("bvp-headline", "annulus", 16, 16, 0.3, 1e160, -2.0)
def test_transport_overrides_exit_cleanly(tmp_path_factory, scenario, geometry, N, M, eps, a1, a2):
    overrides = {"geometry": geometry, "N": N, "M": M, "eps": eps,
                 "q1": {"kind": "bump", "amplitude": a1}}
    if scenario == "bvp-headline":
        overrides["q2"] = {"kind": "bump", "amplitude": a2, "theta0": 4.0}
    argv = [scenario, "--out", str(tmp_path_factory.mktemp("fuzz") / "out")]
    for key, value in overrides.items():
        argv += ["--override", f"{key}={json.dumps(value)}"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with np.errstate(over="ignore", invalid="ignore"):  # huge amplitudes overflow
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        json.loads(Path(argv[2], "summary.json").read_text(), parse_constant=_refuse_constant)
    if (N, M, eps, a1) == (16, 16, 0.3, _RESONANT[geometry]):
        assert code == 3
    if (scenario, geometry, N, M, eps) == ("bvp-headline", "annulus", 16, 16, 0.3):
        if a1 in (_INDEFINITE, 1e160) and a2 == -2.0:
            assert code == 3
    if (scenario, N, M, eps, a1) == ("null-test", 8, 8, 0.5, 4.290498537581631e155):
        assert code == 0


# -- override fuzz of the other scenarios ---------------------------------------

_TOL = st.one_of(st.floats(1e-12, 1.0), st.floats())
_Q = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("bump"), "amplitude": _AMPLITUDES},
        optional={"theta0": st.floats(-10, 10), "t0": st.floats(-1, 2), "width": st.floats(-1, 2)},
    ),
    st.fixed_dictionaries({"kind": st.just("constant"), "value": _AMPLITUDES}),
    st.just({"kind": "zero"}),
)
_DATA = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("mode")},
        optional={"k": st.integers(-40, 40), "phase": st.floats(), "offset": st.floats()},
    ),
    st.fixed_dictionaries({"kind": st.just("random"), "seed": st.integers(-2, 2**70)}),
)
# always set, and valid (the transport fuzz tries bad sizes): the defaults are twice as fine
_GRID = {"N": st.sampled_from([8, 10, 12, 14, 16]), "M": st.integers(8, 16)}
_COLLAR = {
    "geometry": st.sampled_from(sorted(_RESONANT)),
    # no tiny eps: its depth grid is up to 1e6 nodes long (a tiny-eps test has its own)
    "eps": st.one_of(st.floats(0.02, 0.7), st.sampled_from([-0.5, 0.0, 0.3, 0.75, 2.0])),
}
_PAIR_KEYS = {**_COLLAR, "q1": _Q, "q2": _Q}
_DATA_KEYS = {**_PAIR_KEYS, "boundary_data": _DATA, "boundary_data2": _DATA, "tol": _TOL}
# scenario -> (the keys the fuzz always sets, the keys it may set), each with its strategy
_FUZZED = {
    "dn-compute": (_GRID, {**_COLLAR, "q1": _Q, "sym_tol": _TOL}),
    "riccati-check": (_GRID, {**_COLLAR, "q1": _Q, "tol": _TOL}),
    "evolve-check": (_GRID, {**_COLLAR, "q1": _Q, "boundary_data": _DATA, "tol": _TOL}),
    "kernel-check": (_GRID, _DATA_KEYS),
    "layer-strip": (_GRID, _DATA_KEYS),
    "oducp-probe": (_GRID, _PAIR_KEYS),
    "conformal-check": (_GRID, {
        **_COLLAR,
        "dim": st.integers(0, 3),
        "gamma": st.one_of(
            st.fixed_dictionaries({"kind": st.just("exp"), "rate": st.floats(-20, 20)}),
            st.fixed_dictionaries(
                {"kind": st.just("poly"), "coeffs": st.lists(st.floats(-5, 5), max_size=4)}
            ),
        ),
        "n_ambient": st.integers(-2, 6),
        "modes_max": st.integers(-1, 6),
        "tol": _TOL,
    }),
    "global-march": (_GRID, {**_PAIR_KEYS, "tol": _TOL, "max_windows": st.integers(0, 4)}),
    "convergence-study": (
        {"levels": st.lists(st.tuples(*_GRID.values()).map(list), min_size=2, max_size=3)},
        {**_COLLAR, "q1": _Q, "quantity": st.sampled_from(sorted(cli._MEASURES))},
    ),
    # no grid; a mesh of at most 12 x 12 cells, or the default 50 x 100. A sphere, closed at
    # any size, is no mesh kind: like a cube it exits 2
    "exhaustion": ({}, {
        "mesh_kind": st.sampled_from(["annulus", "disk", "strip", "sphere", "cube"]),
        "mesh_params": st.one_of(
            st.lists(st.integers(-2, 12), max_size=1),
            st.lists(st.integers(-2, 12), min_size=2, max_size=3),
        ),
        "samples_per_cell": st.integers(-1, 6),
    }),
}


@pytest.mark.parametrize("scenario", _FUZZED)
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(data=st.data())
def test_scenario_overrides_exit_cleanly(tmp_path_factory, scenario, data):
    always, maybe = _FUZZED[scenario]
    overrides = data.draw(st.fixed_dictionaries(always, optional=maybe))
    _exits_cleanly(tmp_path_factory, scenario, overrides)


@pytest.mark.parametrize(
    "overrides, code",
    [
        ({"mesh_kind": "sphere", "mesh_params": [1]}, 2),
        ({"mesh_params": [4, 2]}, 2),
        ({"mesh_kind": "cube"}, 2),
        ({"mesh_kind": "sphere", "mesh_params": [12]}, 2),
    ],
    ids=["closed", "two-sectors", "unknown-kind", "too-large"],
)
def test_exhaustion_override_examples_exit_as_documented(tmp_path_factory, overrides, code):
    # explicit examples for the fuzz above, which draws through st.data() and so takes none;
    # a generated sphere is closed at any size, so it is refused as a kind, small or too large
    assert _exits_cleanly(tmp_path_factory, "exhaustion", overrides) == code


def _exits_cleanly(tmp_path_factory, scenario, overrides):
    """Run ``scenario`` with ``overrides``; its exit code, once the run left no
    traceback and no NaN or infinity in anything it wrote."""
    out = tmp_path_factory.mktemp("fuzz") / "out"
    argv = [scenario, "--out", str(out)]
    for key, value in overrides.items():
        argv += ["--override", f"{key}={json.dumps(value)}"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with np.errstate(over="ignore", invalid="ignore"):  # huge amplitudes overflow
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        json.loads((out / "summary.json").read_text(), parse_constant=_refuse_constant)
    for path in out.glob("*.csv") if out.is_dir() else ():
        assert not {"nan", "inf"} & set(path.read_text().replace(",", "\n").split()), path
    return code
