"""Checks on the outputs of one scenario run.

A run fails when the CLI raises, exits nonzero, reports anything but PASS,
writes a non-finite number, or leaves an artifact that does not read back:
every ``.evsq`` file is re-read with :func:`evosq.io.read_matrix`, with
geometry-hash warnings turned into failures and the payload hashed with
sha256 (checked against the sidecar when the sidecar carries one), and
``shells.csv`` is parsed. Each run also yields its worst measured error as a
share of the tolerance it was checked against.
"""

import csv
import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

# (error, tolerance) pairs per scenario: dotted paths into summary.json.
ERROR_CHECKS = {
    "bvp-headline": [("results.rel_error", "results.tol")],
    "riccati-check": [("results.cross_error", "results.tol")],
    "evolve-check": [("results.sup_error", "results.tol")],
    "layer-strip": [("results.rel_gap", "results.tol")],
    "kernel-check": [
        ("results.residuals.factorized", "results.tol"),
        ("results.residuals.expanded-double", "results.tol"),
    ],
    "dn-compute": [("results.symmetry_defect", "config.sym_tol")],
    "conformal-check": [("results.max_rel_error", "results.tol")],
}

EXPECTED_ARTIFACTS = {
    "bvp-headline": ("recovered_difference.evsq",),
    "dn-compute": ("lam_boundary.evsq", "lam_collar.evsq"),
    "oducp-probe": ("shells.csv",),
}


@dataclass
class Outcome:
    scenario: str
    failures: list = field(default_factory=list)
    err_over_tol: float = None
    summary_bytes: bytes = b""
    artifacts: int = 0
    artifacts_with_sha256: int = 0

    @property
    def failed(self):
        return bool(self.failures)


def _lookup(obj, dotted):
    for part in dotted.split("."):
        obj = obj[part]
    return obj


def _non_finite(obj, path=""):
    """Paths of every NaN or infinity in a parsed JSON value."""
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _non_finite(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _non_finite(v, f"{path}[{i}]")]
    if isinstance(obj, float) and not math.isfinite(obj):
        return [path]
    return []


def _check_matrix(path, expected_hash, outcome):
    import numpy as np

    from evosq.io import read_matrix

    outcome.artifacts += 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        arr, sidecar = read_matrix(path, expected_geometry_hash=expected_hash)
    if sidecar is None:
        outcome.failures.append(f"{path.name}: no sidecar")
        return
    if not np.all(np.isfinite(arr)):
        outcome.failures.append(f"{path.name}: non-finite payload")
    digest = hashlib.sha256(arr.astype("<f8").tobytes()).hexdigest()
    if "sha256" in sidecar:
        outcome.artifacts_with_sha256 += 1
        if sidecar["sha256"] != digest:
            outcome.failures.append(f"{path.name}: sha256 mismatch")


def _check_shells(path, outcome):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["shell_lo", "shell_hi", "mass"] or len(rows) < 3:
        outcome.failures.append(f"{path.name}: bad header or fewer than two shells")
        return
    for row in rows[1:]:
        lo, hi, mass = (float(x) for x in row)
        if not all(math.isfinite(x) for x in (lo, hi, mass)) or mass < 0 or not lo < hi:
            outcome.failures.append(f"{path.name}: bad shell row {row}")


def check_run(scenario, out_dir, code, error=None):
    """Verify one finished scenario run and return its :class:`Outcome`."""
    out = Outcome(scenario)
    if error is not None:
        out.failures.append(f"exception: {error}")
        return out
    if code != 0:
        out.failures.append(f"exit code {code}")
    out_dir = Path(out_dir)
    try:
        out.summary_bytes = (out_dir / "summary.json").read_bytes()
        summary = json.loads(out.summary_bytes)
    except (OSError, ValueError) as exc:
        out.failures.append(f"summary.json unreadable: {exc}")
        return out
    if summary.get("passed") is not True:
        out.failures.append("result is not PASS")
    bad = _non_finite(summary)
    if bad:
        out.failures.append(f"non-finite values at {bad[:4]}")
    ratios = []
    for err_key, tol_key in ERROR_CHECKS.get(scenario, ()):
        try:
            ratios.append(float(_lookup(summary, err_key)) / float(_lookup(summary, tol_key)))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            out.failures.append(f"cannot read {err_key} / {tol_key}: {exc!r}")
    if ratios:
        out.err_over_tol = max(ratios)
    missing = [n for n in EXPECTED_ARTIFACTS.get(scenario, ()) if not (out_dir / n).exists()]
    if missing:
        out.failures.append(f"artifacts missing: {missing}")
    expected_hash = summary.get("results", {}).get("geometry_hash")
    try:
        for path in sorted(out_dir.glob("*.evsq")):
            _check_matrix(path, expected_hash, out)
        if (out_dir / "shells.csv").exists():
            _check_shells(out_dir / "shells.csv", out)
    except Exception as exc:  # any artifact that does not read back is a failed run
        out.failures.append(f"artifact check: {exc!r}")
    return out
