"""Planted defects: each certificate must FAIL on a defect it was written to catch."""

import json

import numpy as np
import pytest

from evosq import cli, source_bvp


def _first_order_trace(family, f):
    """``evolve_trace`` with ``Lam_j`` in both halves of each step: first order, not second."""
    g = family.geometry
    ts = g.collar_ts
    eye = np.eye(g.N)
    u = np.empty((g.M + 1, g.N))
    u[0] = np.asarray(f, dtype=float)
    for j in range(g.M):
        h = ts[j + 1] - ts[j]
        rhs = (eye - 0.5 * h * family.lams[j]) @ u[j]
        u[j + 1] = np.linalg.solve(eye + 0.5 * h * family.lams[j], rhs)
    return u


def _left_rectangle(y, x):
    """The rectangle rule on each cell's left node: first order, where the trapezoid rule is second."""
    return float(np.sum(y[:-1] * np.diff(x)))


_diagonal_source = source_bvp.diagonal_source  # the original, kept before a plant replaces it


def _scaled_source(family1, family2):
    """``diagonal_source`` times 1.02: an error that no resolution removes."""
    source = _diagonal_source(family1, family2)
    return lambda j: 1.02 * source(j)


def _results(tmp_path, scenario, planted):
    """Run ``scenario`` at its defaults; it must exit 1 with the plant and 0 without."""
    out = tmp_path / scenario
    assert cli.main([scenario, "--out", str(out)]) == (1 if planted else 0)
    return json.loads((out / "summary.json").read_text())["results"]


@pytest.mark.parametrize("planted", [False, True])
def test_kernel_check_fails_a_first_order_trace_step(tmp_path, monkeypatch, planted):
    # default config (the annulus): the defect leaves residuals of 1.7e-2 against the gate 1e-3
    if planted:
        monkeypatch.setattr(cli, "evolve_trace", _first_order_trace)
    results = _results(tmp_path, "kernel-check", planted)
    assert (results["residuals"]["factorized"] > results["tol"]) == planted


@pytest.mark.parametrize("planted", [False, True])
def test_layer_strip_fails_a_rectangle_rule_volume_integral(tmp_path, monkeypatch, planted):
    # default config: the rectangle rule leaves a gap of 1.19e-2 against the gate 1e-3 (6e-12 clean)
    if planted:
        monkeypatch.setattr(source_bvp.np, "trapezoid", _left_rectangle)
    results = _results(tmp_path, "layer-strip", planted)
    assert (results["rel_gap"] > results["tol"]) == planted


@pytest.mark.parametrize("planted", [False, True])
def test_convergence_study_fails_a_scaled_diagonal_source(tmp_path, monkeypatch, planted):
    # default config (the headline quantity): the errors stall near 2e-2, rate -0.065 against
    # the floor 1.5 (1.94 clean)
    if planted:
        monkeypatch.setattr(source_bvp, "diagonal_source", _scaled_source)
    results = _results(tmp_path, "convergence-study", planted)
    assert (results["rate"] < results["rate_min"]) == planted
