"""Command line driver: ``evosq <scenario> --config <path> [--out <dir>] [--override k=v]...``

Scenarios bundle the library's checks into reproducible runs. Every run
writes a canonical ``summary.json`` (sorted keys, no timestamps; repeat runs
are byte-identical, except for the wall time ``order_seconds`` that
``exhaustion`` records, which times the ordering alone, not its replay or
sampling) plus scenario-specific artifacts under the output
directory. The scenario table ``_SCENARIOS`` holds each scenario's runner and
its config keys with their defaults; ``_KINDS`` holds the keys and defaults
of each kind of the nested ``boundary_data`` and ``gamma`` specs. A key that
only some values of a selector take (``rho``/``T`` per ``geometry``,
``q2``/``boundary_data`` per convergence ``quantity``, ``mesh_kind``/``mesh_params``
unless ``mesh`` is given) is typed by the selected row and refused with any other.

Exit codes: 0 all checks passed; 1 a check failed; 2 configuration error
(unknown key, bad value, malformed config file, an ``--out`` that cannot be
a directory, a problem too large to allocate on this host); 3 numerical failure
(singular pivot, escaped integration, non-convergent or indefinite implicit step, a
result that overflowed to a non-finite value, which ``summary.json`` never
holds, bad input data files; an unreadable matrix file raises
``FormatError`` alone).
"""

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import io as evsq_io
from . import meshes
from .dnmap import (
    DNFamily,
    _norm,
    compute_dn_family,
    conformal_identity_check,
    lambda_min,
    riccati_integrate,
    riccati_residual,
    solve_interior,
)
from .errors import ConfigError, EvosqError, GeometryError
from .evolution import LowRank, PairOperator, evolve_trace
from .exhaustion import collar_map_samples, exhaustion_order, load_mesh
from .geometry import PROFILE_PARAMS, build_warped_geometry, make_profile
from .potentials import make_potential
from .probes import P_CRITICAL, gradient_blowup_probe, null_test, offdiagonal_flag, zeta_pairing
from .rng import SplitMix64
from .source_bvp import dn_recovery_check, layer_strip_check
from .squared import kernel_residual

_DEFAULT_Q1 = {"kind": "bump", "amplitude": 3.0, "theta0": 1.0, "t0": 0.1, "width": 0.4}
_DEFAULT_Q2 = {"kind": "bump", "amplitude": -2.0, "theta0": 4.0, "t0": 0.15, "width": 0.35}
_F1 = {"kind": "mode", "k": 1, "offset": 0.3}  # boundary_data
_F2 = {"kind": "mode", "k": 2, "offset": 0.1}  # boundary_data2
_GAMMA = {"kind": "exp", "rate": 1.0}
_SINGLE_FLOOR = 0.05  # kernel-check: the least expanded-single residual, a negative control
_RATE_MIN = 1.5  # convergence-study: the least observed order
_MAX_MODES = 2**16  # conformal-check: the most candidate modes (modes_max + 1) ** dim


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _apply_override(cfg, spec):
    if "=" not in spec:
        raise ConfigError(f"override {spec!r} is not of the form key=value")
    key, raw = spec.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = key.split(".")
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {key!r} crosses a non-object value")
    node[parts[-1]] = value


# lower bounds of the numeric keys that have one
_MINIMA = {"modes_max": 0, "samples_per_cell": 4, "max_windows": 1}


def _number(key, value, kind):
    """``kind(value)`` for a config entry; a bool, a non-finite or fractional number, or an
    int that no 64-bit integer holds, is a ConfigError."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if kind is int and out is not None and not -(2**63) <= out < 2**64:
        raise ConfigError(f"config entry {key!r} needs an int in [-2**63, 2**64), got {value!r}")
    if isinstance(value, bool) or out is None or not (np.isfinite(out) and float(out) == float(value)):
        raise ConfigError(f"config entry {key!r} needs a finite {kind.__name__}, got {value!r}")
    return out


def _typed(what, defaults, cfg):
    """``cfg`` checked against the table row ``defaults`` and completed from it.

    A key outside the row is an error. A key whose default is an int or a
    float is converted to that type (a bool is not a number), a key in
    ``_MINIMA`` must reach its bound, and ``levels`` becomes ``[N, M]`` int
    pairs. Absent keys take their default, except that a key whose default
    is None stays absent.
    """
    unknown = sorted(set(cfg) - set(defaults))
    if unknown:
        raise ConfigError(
            f"unknown config keys for {what}: {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(defaults)) or 'none'})"
        )
    typed = {k: v for k, v in defaults.items() if v is not None}
    for key, value in cfg.items():
        kind = type(defaults[key])
        typed[key] = _number(key, value, kind) if kind in (int, float) else value
    for key, low in _MINIMA.items():
        if key in cfg and typed[key] < low:
            raise ConfigError(f"config entry {key!r} needs a value >= {low}, got {cfg[key]!r}")
    if "levels" in cfg:
        levels = cfg["levels"]
        try:
            typed["levels"] = [[_number("levels", n, int) for n in (N, M)] for N, M in levels]
        except (TypeError, ValueError):
            raise ConfigError(f"config entry 'levels' needs [N, M] pairs, got {levels!r}") from None
        if len(typed["levels"]) < 2:  # a rate needs two levels
            raise ConfigError(f"config entry 'levels' needs at least two levels, got {levels!r}")
    return typed


def _selected(cfg, what, choice, table):
    """Row ``choice`` of ``table``, typed from ``cfg``; a key of any other row is an error."""
    if not isinstance(choice, str) or choice not in table:
        raise ConfigError(f"unknown {what} {choice!r}")
    given = {k: cfg[k] for row in table.values() for k in row if k in cfg}
    return _typed(f"{what} {choice!r}", table[choice], given)


def _profile(cfg):
    name = cfg["geometry"]
    return make_profile(name, **_selected(cfg, "geometry", name, PROFILE_PARAMS))


def _build_geometry(cfg):
    return build_warped_geometry(_profile(cfg), N=cfg["N"], M=cfg["M"], eps=cfg["eps"])


def _pair(cfg):
    """Geometry and the slice-map families of ``q1`` and ``q2`` on it."""
    g = _build_geometry(cfg)
    return g, compute_dn_family(g, cfg["q1"]), compute_dn_family(g, cfg["q2"])


# nested spec -> {kind: its keys with their defaults}; an absent "kind" means the first
_KINDS = {
    "boundary data": {"mode": {"k": 1, "phase": 0.0, "offset": 0.0}, "random": {"seed": 0}},
    "gamma": {"exp": {"rate": 1.0}, "poly": {"coeffs": [1.0, 0.5]}},
}


def _kind(spec, default, what):
    """``(kind, keys)`` of a nested spec, its keys typed against their ``_KINDS`` row."""
    spec = spec or default  # null and {} stand for the table default
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} must be an object with a 'kind', got {spec!r}")
    kinds = _KINDS[what]
    kind = spec.get("kind", next(iter(kinds)))
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    keys = {k: v for k, v in spec.items() if k != "kind"}
    return kind, _typed(f"{what} kind {kind!r}", kinds[kind], keys)


def _boundary_data(geometry, spec, default=_F1):
    kind, p = _kind(spec, default, "boundary data")
    if kind == "mode":
        return np.cos(p["k"] * geometry.theta + p["phase"]) + p["offset"]
    return np.asarray(SplitMix64(p["seed"]).normals(geometry.N))


def _pair_data(cfg, g):
    """Boundary data ``(f1, f2)`` for the two-family pairing checks."""
    return _boundary_data(g, cfg["boundary_data"]), _boundary_data(g, cfg["boundary_data2"], _F2)


def _gamma_callable(spec):
    kind, p = _kind(spec, _GAMMA, "gamma")
    if kind == "exp":
        rate = p["rate"]
        # no overflow warning: the geometry rejects the factor as non-finite
        return np.errstate(over="ignore")(lambda t: np.exp(rate * np.asarray(t, dtype=float)))
    coeffs = p["coeffs"]
    if not isinstance(coeffs, list) or not coeffs:
        raise ConfigError(f"gamma coeffs must be a non-empty list, got {coeffs!r}")
    coeffs = [_number("coeffs", c, float) for c in coeffs]
    return lambda t: np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), coeffs)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.12e}" if isinstance(v, float) else str(v) for v in row) + "\n")


def _write_evsq(out, name, array, kind, t, g, scenario):
    evsq_io.write_matrix(
        os.path.join(out, name),
        array,
        {"kind": kind, "t": t, "N": g.N, "M": g.M, "geometry_hash": g.hash(),
         "provenance": f"evosq-cli/{scenario}"},
    )


# ---------------------------------------------------------------------------
# scenario runners (each returns (results, passed)) and their shared metrics
# ---------------------------------------------------------------------------


def _riccati_error(fam):
    """Relative gap at depth 0 between the Riccati flow from the collar map and the family."""
    road = riccati_integrate(fam)
    return float(_norm(road[0] - fam.lams[0]) / max(_norm(fam.lams[0]), 1e-30))


def _evolve_error(cfg):
    """Relative sup gap between the trace flow and the interior solve of the boundary data."""
    g = _build_geometry(cfg)
    fam = compute_dn_family(g, cfg["q1"], keep_chain=True)
    f = _boundary_data(g, cfg["boundary_data"])
    u_flow = evolve_trace(fam, f)
    u_int = solve_interior(fam, f)
    return float(np.max(np.abs(u_flow - u_int)) / max(np.max(np.abs(u_int)), 1e-30))


def _headline_error(cfg):
    """Relative error of the recovered potential difference."""
    return dn_recovery_check(*_pair(cfg)[1:])["rel_error"]


def _run_dn_compute(cfg, out):
    g = _build_geometry(cfg)
    fam = compute_dn_family(g, cfg["q1"])
    defect = max(float(_norm(L - L.T) / max(_norm(L), 1e-30)) for L in fam.lams)
    for tag, j in (("boundary", 0), ("collar", g.M)):
        _write_evsq(
            out, f"lam_{tag}.evsq", fam.lams[j], "slice-map", float(g.collar_ts[j]), g, "dn-compute"
        )
    results = {
        "geometry_hash": g.hash(),
        "depths": int(g.M + 1),
        "symmetry_defect": defect,
        "eig_min": lambda_min(fam.lams[0]),
        "eig_max": -lambda_min(-fam.lams[0]),
    }
    return results, defect <= cfg["sym_tol"]


def _run_riccati(cfg, out):
    fam = compute_dn_family(_build_geometry(cfg), cfg["q1"])
    err = _riccati_error(fam)
    results = {"cross_error": err, "residual": float(riccati_residual(fam)), "tol": cfg["tol"]}
    return results, err <= cfg["tol"]


def _run_evolve(cfg, out):
    err = _evolve_error(cfg)
    return {"sup_error": err, "tol": cfg["tol"]}, err <= cfg["tol"]


def _run_kernel(cfg, out):
    g, fam1, fam2 = _pair(cfg)
    f1, f2 = _pair_data(cfg, g)
    u1, u2 = evolve_trace(fam1, f1), evolve_trace(fam2, f2)
    W = LowRank(u1[..., None], u2[..., None])
    tol = cfg["tol"]
    res = kernel_residual(PairOperator(fam1, fam2), W)
    passed = (
        res["factorized"] <= tol
        and res["expanded-double"] <= tol
        and res["expanded-single"] >= _SINGLE_FLOOR
    )
    return {"residuals": res, "tol": tol, "single_floor": _SINGLE_FLOOR}, passed


def _run_headline(cfg, out):
    g, fam1, fam2 = _pair(cfg)
    check = dn_recovery_check(fam1, fam2)
    _write_evsq(
        out, "recovered_difference.evsq", check["recovered"], "recovered-difference", 0.0, g,
        "bvp-headline",
    )
    results = {"rel_error": check["rel_error"], "tol": cfg["tol"]}
    return results, check["rel_error"] <= cfg["tol"]


def _run_layer_strip(cfg, out):
    g = _build_geometry(cfg)
    check = layer_strip_check(g, cfg["q1"], cfg["q2"], *_pair_data(cfg, g))
    results = {k: check[k] for k in ("lhs", "rhs", "volume_term", "deep_term", "rel_gap")}
    results["tol"] = cfg["tol"]
    return results, check["rel_gap"] <= cfg["tol"]


def _run_null(cfg, out):
    fam = compute_dn_family(_build_geometry(cfg), cfg["q1"])
    res = null_test(fam, fam)
    return {k: res[k] for k in ("max_abs", "scale", "passed")}, bool(res["passed"])


def _run_probe(cfg, out):
    g, fam1, fam2 = _pair(cfg)
    check = dn_recovery_check(fam1, fam2)
    kernel = check["recovered"] / g.node_weight(0.0)
    flag = offdiagonal_flag(g, kernel)
    prof = flag["profile"]
    _write_csv(
        os.path.join(out, "shells.csv"),
        ("shell_lo", "shell_hi", "mass"),
        [(lo, hi, m) for (lo, hi), m in zip(prof["edges"], prof["masses"].tolist())],
    )
    results = {
        "flag": bool(flag["flag"]),
        "far_mass": flag["far_mass"],
        "total_mass": flag["total"],
        "partition_defect": prof["partition_defect"],
        "headline_error": check["rel_error"],
        "zeta": zeta_pairing(g, kernel),
        "p_critical": P_CRITICAL,
    }
    if g.N >= 64:
        grad = gradient_blowup_probe(g, check["stages"]["phi"])
        results["gradient_slope"] = grad["slope"]
    else:
        results["gradient_slope"] = None
    return results, bool(flag["flag"])


def _run_conformal(cfg, out):
    g = build_warped_geometry(
        _profile(cfg), N=cfg["N"], M=cfg["M"], eps=cfg["eps"], dim=cfg["dim"]
    )
    gamma = _gamma_callable(cfg["gamma"])
    kmax = cfg["modes_max"]
    if (kmax + 1) ** g.dim > _MAX_MODES:
        raise ConfigError(
            f"problem too large: modes_max {kmax} with dim={g.dim} lists more than {_MAX_MODES} "
            "candidate modes"
        )
    if g.dim == 1:
        modes = list(range(kmax + 1))
    else:
        modes = [
            (k1, k2)
            for k1 in range(kmax + 1)
            for k2 in range(k1, kmax + 1)
            if k1 * k1 + k2 * k2 <= kmax * kmax
        ]
    res = conformal_identity_check(g, gamma, cfg["n_ambient"], modes)
    results = {"max_rel_error": res["max_rel_error"], "modes_checked": len(modes)}
    results["tol"] = cfg["tol"]
    return results, res["max_rel_error"] <= cfg["tol"]


# mesh source -> its keys with their defaults: an OFF file, or a mesh kind and its parameters
_MESH_SOURCES = {
    "mesh": {"mesh": None}, "mesh_kind": {"mesh_kind": "annulus", "mesh_params": [50, 100]},
}
# mesh kind -> (maker, least value of each parameter, its triangle count); under 3 sectors a
# ring makes no surface. A sphere is closed, so it could only exit 3: it is no kind
_MESH_MAKERS = {
    "annulus": (meshes.annulus_mesh, (1, 3), lambda rings, sectors: 2 * rings * sectors),
    "disk": (meshes.disk_mesh, (1, 3), lambda rings, sectors: (2 * rings - 1) * sectors),
    "strip": (meshes.strip_mesh, (1, 1), lambda nx, ny: 2 * nx * ny),
}
_MAX_TRIANGLES = 2**18  # generated-mesh bound
_MAX_SAMPLE_PAIRS = 2**32  # push-through sampling bound, about half a minute at 8 ns a pair


def _run_exhaustion(cfg, out):
    source = _selected(cfg, "mesh source", "mesh" if "mesh" in cfg else "mesh_kind", _MESH_SOURCES)
    if "mesh" in source:
        if not isinstance(source["mesh"], str):
            raise ConfigError(f"mesh must be a path string, got {source['mesh']!r}")
        mesh = load_mesh(source["mesh"])
    else:
        kind, params = source["mesh_kind"], source["mesh_params"]
        if not isinstance(kind, str) or kind not in _MESH_MAKERS:
            raise ConfigError(f"unknown mesh kind {kind!r}")
        maker, minima, triangles = _MESH_MAKERS[kind]
        if not isinstance(params, list) or len(params) != len(minima):
            raise ConfigError(
                f"mesh_params for mesh_kind {kind!r} needs {len(minima)} ints, got {params!r}"
            )
        params = [_number("mesh_params", p, int) for p in params]
        if any(p < low for p, low in zip(params, minima)):
            raise ConfigError(
                f"mesh_params for mesh_kind {kind!r} needs ints >= {list(minima)}, got {params!r}"
            )
        if triangles(*params) > _MAX_TRIANGLES:
            raise ConfigError(
                f"problem too large: mesh_kind {kind!r} with mesh_params {params} makes more "
                f"than {_MAX_TRIANGLES} triangles"
            )
        mesh = maker(*params)
    m = cfg["samples_per_cell"]
    lattice = (m + 1) * (m + 2) // 2
    if mesh.n_triangles * lattice * (lattice - 1) // 2 > _MAX_SAMPLE_PAIRS:
        raise ConfigError(
            f"problem too large: samples_per_cell {m} on {mesh.n_triangles} triangles "
            f"measures more than {_MAX_SAMPLE_PAIRS} sample pairs"
        )
    t0 = time.perf_counter()
    order = exhaustion_order(mesh)
    elapsed = time.perf_counter() - t0
    stats = collar_map_samples(mesh, order, samples_per_cell=m)
    results = {
        "triangles": mesh.n_triangles,
        "order_seconds": elapsed,
        "collisions": stats["collisions"],
        "min_new_samples": stats["min_new_samples"],
        "growth_steps": stats["growth_steps"],
    }
    return results, stats["collisions"] == 0


def _run_march(cfg, out):
    profile = _profile(cfg)
    eps, M = cfg["eps"], cfg["M"]
    q1, q2 = make_potential(cfg["q1"]), make_potential(cfg["q2"])

    # a window needs two collar steps eps / M between its collar and the cap
    starts, depth = [], 0.0
    while len(starts) < cfg["max_windows"] and (profile.T - depth - eps) * M > 2.0 * eps:
        starts.append(depth)
        depth += eps
    W = len(starts)
    if W == 0:
        raise ConfigError(
            f"global-march has no window: eps={eps} with M={M} leaves no room before cap T={profile.T}"
        )
    # one collar over every window; window i reads rows i*M .. i*M + M of each family
    g = build_warped_geometry(profile, N=cfg["N"], M=W * M, eps=W * eps)
    fams = [compute_dn_family(g, q) for q in (q1, q2)]
    windows = []
    for i, start in enumerate(starts):
        view = replace(g, M=M, eps=eps, ts=g.ts[i * M :], rs=g.rs[i * M :])
        rows = slice(i * M, i * M + M + 1)
        fam1, fam2 = (DNFamily(view, f.potential, f.lams[rows], f.q[rows]) for f in fams)
        check = dn_recovery_check(fam1, fam2)
        nul = null_test(fam1, fam1)
        ok = check["rel_error"] <= cfg["tol"] and nul["passed"]
        windows.append({
            "start": start, "end": start + eps, "rel_error": check["rel_error"],
            "null_ok": bool(nul["passed"]), "passed": bool(ok),
        })
        if not ok:  # the march stops at the first failing window
            break

    last = max((w["end"] for w in windows if w["passed"]), default=0.0)
    results = {
        "windows": windows,
        "last_verified_depth": last,
        "cap_depth": profile.T,
        "cap_reached": bool(profile.T - last <= eps + 1e-12),
    }
    return results, windows[-1]["passed"]


# convergence quantity -> its error at one (N, M) level
_MEASURES = {
    "headline": _headline_error,
    "riccati": lambda cfg: _riccati_error(compute_dn_family(_build_geometry(cfg), cfg["q1"])),
    "evolve": _evolve_error,
}
# convergence quantity -> the keys its measure reads beyond the collar and q1, with their defaults
_MEASURE_KEYS = {"headline": {"q2": _DEFAULT_Q2}, "riccati": {}, "evolve": {"boundary_data": _F1}}


def _run_convergence(cfg, out):
    quantity, levels = cfg["quantity"], cfg["levels"]
    keys = _selected(cfg, "convergence quantity", quantity, _MEASURE_KEYS)
    errors = [_MEASURES[quantity]({**cfg, **keys, "N": N, "M": M}) for N, M in levels]

    idx = np.arange(len(errors), dtype=float)
    logs = np.log2(np.maximum(errors, 1e-300))
    rate = -float(np.polyfit(idx, logs, 1)[0])
    _write_csv(
        os.path.join(out, "rates.csv"),
        ("level", "N", "M", "error"),
        [(i, N, M, e) for i, ((N, M), e) in enumerate(zip(levels, errors))],
    )
    results = {"quantity": quantity, "errors": errors, "rate": rate, "levels": levels}
    results["rate_min"] = _RATE_MIN
    return results, rate >= _RATE_MIN


# scenario name -> (runner, {config key: default}), in CLI order. A default
# also fixes the key's type (see _typed); a None default leaves the key unset,
# for its selector's table row to type (see _selected).
_COLLAR = {"geometry": "annulus", "rho": None, "T": None, "eps": 0.3}
_GEOMETRY = {**_COLLAR, "N": 32, "M": 64}
_ONE = {**_GEOMETRY, "q1": _DEFAULT_Q1}
_PAIR = {**_ONE, "q2": _DEFAULT_Q2}
_DATA = {"boundary_data": _F1, "boundary_data2": _F2}

_SCENARIOS = {
    "dn-compute": (_run_dn_compute, {**_ONE, "sym_tol": 1e-8}),
    "riccati-check": (_run_riccati, {**_ONE, "tol": 1e-2}),
    "evolve-check": (_run_evolve, {**_ONE, "boundary_data": _F1, "tol": 1e-2}),
    "kernel-check": (_run_kernel, {**_PAIR, **_DATA, "tol": 1e-3}),
    "bvp-headline": (_run_headline, {**_PAIR, "tol": 5e-2}),
    "layer-strip": (_run_layer_strip, {**_PAIR, **_DATA, "tol": 1e-3}),
    "null-test": (_run_null, _ONE),
    "oducp-probe": (_run_probe, _PAIR),
    "conformal-check": (
        _run_conformal,
        {**_GEOMETRY, "dim": 1, "gamma": _GAMMA, "n_ambient": 3, "modes_max": 8, "tol": 1e-3},
    ),
    "exhaustion": (_run_exhaustion, {
        "mesh": None, "mesh_kind": None, "mesh_params": None, "samples_per_cell": 4,
    }),
    "global-march": (_run_march, {
        **_PAIR, "q1": {"kind": "constant", "value": 1.5}, "q2": {"kind": "zero"}, "tol": 5e-2,
        "max_windows": 16,
    }),
    "convergence-study": (_run_convergence, {  # its levels set N and M
        **_COLLAR, "q1": _DEFAULT_Q1, "q2": None, "quantity": "headline",
        "levels": [[32, 32], [32, 64], [32, 128]], "boundary_data": None,
    }),
}

SCENARIOS = tuple(_SCENARIOS)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="evosq",
        description="Depth-indexed boundary map laboratory on warped collars.",
    )
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default="evosq-out", help="output directory")
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config entry (value parsed as JSON, dotted paths allowed)",
    )
    args = parser.parse_args(argv)

    runner = _SCENARIOS[args.scenario][0]
    existed = os.path.isdir(args.out)
    try:
        cfg = _load_config(args.config)
        for spec in args.override:
            _apply_override(cfg, spec)
        typed = _typed(args.scenario, _SCENARIOS[args.scenario][1], cfg)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {args.out}: {exc}") from None
        # numpy's floating-point warnings stay off stderr: a run that overflows
        # ends in its own check, and a non-finite value is never written (exit 3)
        with np.errstate(all="ignore"):
            results, passed = runner(typed, args.out)
        text = evsq_io.dump_json(
            {"scenario": args.scenario, "config": cfg, "results": results, "passed": bool(passed)}
        )
    except (ConfigError, GeometryError, MemoryError) as exc:
        too_large = "problem too large for this host: " if isinstance(exc, MemoryError) else ""
        print(f"config error: {too_large}{exc}", file=sys.stderr)
        if not existed and os.path.isdir(args.out) and not os.listdir(args.out):
            os.rmdir(args.out)  # made by this call and still empty
        return 2
    except EvosqError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        fh.write(text)
    status = "PASS" if passed else "FAIL"
    print(f"{args.scenario}: {status}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
