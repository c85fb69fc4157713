"""Planted defects: each certificate must FAIL on a defect it was written to catch."""

import json

import numpy as np
import pytest

from evosq import cli


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


@pytest.mark.parametrize("planted", [False, True])
def test_kernel_check_fails_a_first_order_trace_step(tmp_path, monkeypatch, planted):
    # default config (the annulus): the defect leaves residuals of 1.7e-2 against the gate 1e-3
    if planted:
        monkeypatch.setattr(cli, "evolve_trace", _first_order_trace)
    out = tmp_path / "kernel"
    assert cli.main(["kernel-check", "--out", str(out)]) == (1 if planted else 0)
    results = json.loads((out / "summary.json").read_text())["results"]
    assert (results["residuals"]["factorized"] > results["tol"]) == planted
