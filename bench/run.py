#!/usr/bin/env python3
"""evosq benchmark: drive the CLI in-process on a seeded workload.

    python3 bench/run.py --workload headline --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 30

One client, closed loop: each scenario run starts when the previous one has
returned, and each iteration draws fresh inputs (see ``bench/workloads.py``).
A run first measures set-up (a fresh-process import of evosq, three times,
plus one untimed warm-up iteration), then loops over iterations for
``--seconds``; a traced run also reruns every scenario of the warm-up
iteration untimed, to compare ``summary.json`` bytes. With ``--trace 0`` the
loop is untraced and the end-to-end metrics are printed. Their times are in
nominal-host seconds: wall time scaled by the speed of a fixed calibration
loop timed during the same iteration (``bench/hostspeed.py``), because a
shared host's speed can swing by more than the bounds; wall times are
printed beside them. With ``--trace 1`` half the time is spent untraced and
half with the layer trace on (``bench/spans.py``), the warm-up iteration
takes allocation peaks with tracemalloc, and the per-layer metrics are
printed. Every scenario run is checked
(``bench/verify.py``). The last line of standard output is one JSON object;
a record with the environment and, when traced, every span is written under
``.bench_out/``. Numpy and the standard library only; no thread count is set.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
IMPORT_SAMPLES = 3

# name -> unit; must match BENCHMARK.json. The tail time is printed and
# recorded but not listed: a run here has 2-4 iterations, and a percentile
# with ten iterations beyond it needs at least eleven.
END_TO_END = {
    "iter_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "dnmap.propagation_chain.s": "s",
    "dnmap.propagation_chain.calls": "count",
    "dnmap.propagation_chain.nominal_gflop_per_s": "GFLOP/s",
    "dnmap.propagation_chain.peak_mb": "MB",
    "dnmap.propagation_chain.redundant_frac": "ratio",
    "dnmap.compute_dn_family.self_s": "s",
    "dnmap.solve_interior.self_s": "s",
    "dnmap.riccati_integrate.s": "s",
    "dnmap.riccati_residual.s": "s",
    "dnmap.dn_mode_symbol.s": "s",
    "dnmap.dn_mode_symbol.calls": "count",
    "dnmap.conductivity_mode_dn.s": "s",
    "dnmap.conductivity_mode_dn.calls": "count",
    "dnmap.conformal_identity_check.s": "s",
    "potentials.on_slice.calls": "count",
    "geometry.derivative_matrix.calls": "count",
    "geometry.conformal_potential.s": "s",
    "geometry.build_warped_geometry.s": "s",
    "evolution.evolve_tensor_backward.s": "s",
    "evolution.evolve_tensor_forward.s": "s",
    "evolution.transport.peak_mb": "MB",
    "evolution.pair_apply.calls": "count",
    "evolution.pair_apply_per_step": "1/step",
    "evolution.evolve_trace.s": "s",
    "squared.apply_variant.s": "s",
    "squared.kernel_residual.self_s": "s",
    "source_bvp.solve_source_bvp.self_s": "s",
    "source_bvp.layer_strip_check.self_s": "s",
    "probes.offdiagonal_flag.s": "s",
    "probes.gradient_blowup_probe.s": "s",
    "probes.zeta_pairing.s": "s",
    "exhaustion.load_mesh.s": "s",
    "exhaustion.exhaustion_order.s": "s",
    "exhaustion.verify_order.s": "s",
    "exhaustion.collar_map_samples.s": "s",
    "exhaustion.samples_per_s": "1/s",
    "io.write_matrix.s": "s",
    "io.write_matrix.bytes": "B",
    "io.dump_json.s": "s",
    "cli.main.self_s": "s",
    "bench.traced_iter_s": "s",
    "bench.wall_iter_s_p50": "s",
    "bench.calibration_loop_ms": "ms",
    "bench.trace_overhead_frac": "ratio",
    "bench.unattributed_frac": "ratio",
    "bench.evolve_tensor_share": "ratio",
    "bench.propagation_chain_share": "ratio",
    "bench.mode_sweep_exhaustion_share": "ratio",
    "bench.fail_frac": "ratio",
    "bench.nondeterministic_frac": "ratio",
    "bench.worst_err_over_tol": "ratio",
}

EXHAUSTION_SPANS = (
    "exhaustion.load_mesh",
    "exhaustion.exhaustion_order",
    "exhaustion.verify_order",
    "exhaustion.collar_map_samples",
)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def git_sha():
    """Commit of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {
            k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_sha": git_sha(),
    }


# ---------------------------------------------------------------------------
# running scenarios
# ---------------------------------------------------------------------------


def fresh_import_seconds():
    """Wall time of ``import evosq.cli`` in a new interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
        "import evosq.cli; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def cli_argv(scenario, config, out_dir):
    argv = [scenario, "--out", str(out_dir)]
    for key, value in config.items():
        argv += ["--override", f"{key}={json.dumps(value)}"]
    return argv


def run_scenario(scenario, config, out_dir):
    """One CLI call; returns ``(exit code, error text)``."""
    import evosq.cli

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return evosq.cli.main(cli_argv(scenario, config, out_dir)), None
    except Exception as exc:  # a crash is a failed run, not a crashed benchmark
        traceback.print_exc(file=sys.stderr)
        return None, f"{type(exc).__name__}: {exc}"


class Runner:
    """Draws, runs and checks iterations of one workload."""

    def __init__(self, workload, seed, size, run_dir):
        from bench.hostspeed import HostClock
        from bench.workloads import InputGenerator

        self.gen = InputGenerator(workload, seed, size)
        self.run_dir = run_dir
        self.clock = HostClock()
        self.outcomes = []
        self.scenario_s = []  # (iteration, scenario, wall seconds) of every CLI call
        self.count = 0

    def iteration(self, tracer=None, keep=False, calibrate=False):
        """Run and check one iteration.

        Returns its wall seconds and its nominal-host seconds (the CLI calls
        only, less calibration loops), ``[((scenario, config), outcome),
        ...]`` and its directory, which is deleted unless ``keep``. The host
        clock samples on its timer only where ``calibrate``; traced
        iterations leave it off, so that no loop lands inside a span.
        """
        from bench.verify import check_run

        workdir = self.run_dir / f"iter-{self.count:04d}"
        runs = self.gen.draw(workdir / "inputs")
        if tracer is not None:
            tracer.iteration = self.count
        results = []
        clock = self.clock
        clock.sample()
        with clock.armed(calibrate):
            start = time.perf_counter()
            for k, (scenario, config) in enumerate(runs):
                out_dir = workdir / f"{k}-{scenario}"
                t = time.perf_counter()
                results.append((scenario, config, out_dir) + run_scenario(scenario, config, out_dir))
                end = time.perf_counter()
                self.scenario_s.append((self.count, scenario, end - t - clock.busy(t, end)))
            end = time.perf_counter()
        clock.sample()
        seconds = end - start - clock.busy(start, end)
        nominal = clock.nominal(seconds, start, end)
        if tracer is not None:
            tracer.iteration = None
        self.count += 1
        outcomes = [check_run(s, o, code, err) for s, _, o, code, err in results]
        self.outcomes += outcomes
        if not keep:
            shutil.rmtree(workdir, ignore_errors=True)
        return seconds, nominal, list(zip(runs, outcomes)), workdir

    def rerun(self, runs, workdir):
        """Rerun each scenario on the same input; count summary bytes that differ."""
        from bench.verify import check_run

        differ = []
        for k, ((scenario, config), first) in enumerate(runs):
            out_dir = workdir / f"{k}-{scenario}-rerun"
            again = check_run(scenario, out_dir, *run_scenario(scenario, config, out_dir))
            self.outcomes.append(again)
            if again.summary_bytes != first.summary_bytes:
                differ.append(scenario)
        shutil.rmtree(workdir, ignore_errors=True)
        return differ

    def window(self, seconds, tracer=None, least=2):
        """At least ``least`` iterations, then more while they fit in ``seconds``.

        The next iteration starts only if it would end in time, taking as
        long as the last one did, so a run overshoots ``seconds`` only to
        reach ``least`` iterations. Returns the wall and the nominal-host
        seconds of each iteration; untraced windows calibrate.
        """
        wall, nominal = [], []
        start = time.perf_counter()
        while len(wall) < least or time.perf_counter() - start + wall[-1] <= seconds:
            w, n, _, _ = self.iteration(tracer, calibrate=tracer is None)
            wall.append(w)
            nominal.append(n)
        return wall, nominal


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(times):
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``. With fewer than eleven
    samples no percentile has ten beyond it, and the maximum is returned
    with percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def layer_metrics(tracer, traced, untraced, memory):
    """Per-layer metrics per traced iteration; peaks from the ``memory`` tracer."""
    from bench.spans import aggregate

    agg = aggregate(tracer.spans)
    peaks = aggregate(memory.spans)
    n = len(traced)
    wall = sum(traced)
    counters = tracer.counters

    def span(name, key="s"):
        return agg.get(name, {}).get(key, 0) / n

    def peak_mb(name):
        return peaks.get(name, {}).get("peak_bytes", 0) / 2**20

    def ratio(num, den):
        return num / den if den else 0.0

    special = {
        "dnmap.propagation_chain.nominal_gflop_per_s": ratio(
            counters["dnmap.propagation_chain.flop"], 1e9 * n * span("dnmap.propagation_chain")
        ),
        "dnmap.propagation_chain.redundant_frac": ratio(
            counters["dnmap.propagation_chain.redundant"], n * span("dnmap.propagation_chain", "calls")
        ),
        "evolution.transport.peak_mb": peak_mb("source_bvp.solve_source_bvp"),
        "evolution.pair_apply.calls": counters["evolution.pair_apply.calls"] / n,
        "evolution.pair_apply_per_step": ratio(
            counters["evolution.pair_apply.in_evolve"], counters["evolution.implicit_steps"]
        ),
        "potentials.on_slice.calls": counters["potentials.on_slice.calls"] / n,
        "exhaustion.samples_per_s": ratio(
            counters["exhaustion.samples"], n * span("exhaustion.collar_map_samples")
        ),
        "io.write_matrix.bytes": counters["io.write_matrix.bytes"] / n,
        "bench.traced_iter_s": statistics.median(traced),
        "bench.wall_iter_s_p50": statistics.median(untraced),
        "bench.trace_overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
        "bench.unattributed_frac": 1.0 - sum(row["self_s"] for row in agg.values()) / wall,
        "bench.evolve_tensor_share": ratio(
            span("evolution.evolve_tensor_backward") + span("evolution.evolve_tensor_forward"), wall / n
        ),
        "bench.propagation_chain_share": ratio(span("dnmap.propagation_chain"), wall / n),
        "bench.mode_sweep_exhaustion_share": ratio(
            span("dnmap.conformal_identity_check") + sum(span(s) for s in EXHAUSTION_SPANS), wall / n
        ),
    }
    out = {}
    for metric in PER_LAYER:
        if metric in special:
            out[metric] = special[metric]
            continue
        name, key = metric.rsplit(".", 1)
        if key == "peak_mb":
            out[metric] = peak_mb(name)
        elif key in ("s", "self_s", "calls"):
            out[metric] = span(name, key)
    return out


def run_workload(workload, seed, seconds, trace, size="full"):
    """One benchmark run; returns the result object and the run record."""
    import evosq

    if not Path(evosq.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"evosq imported from {evosq.__file__}, not from {ROOT / 'src'}")
    from bench.spans import Tracer

    run_dir = OUT / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    runner = Runner(workload, seed, size, run_dir)
    import_s = statistics.median(fresh_import_seconds() for _ in range(IMPORT_SAMPLES))
    # traced runs report no setup_s, so their warm-up also takes the allocation peaks
    memory = Tracer(track_memory=True) if trace else None
    with memory.installed() if memory else contextlib.nullcontext():
        warm_s, warm_nominal, warm_runs, warm_dir = runner.iteration(memory, keep=trace, calibrate=not trace)
    # the import ran just before the warm-up, at the host speed measured during it
    setup_s = import_s + warm_s
    setup_nominal = setup_s * warm_nominal / warm_s
    # The rerun costs a whole iteration: only traced runs, which report
    # nondeterministic_frac, make it; untraced ones give that time to the window.
    differ = runner.rerun(warm_runs, warm_dir) if trace else None

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size}
    if trace:
        wall, times = runner.window(seconds / 2.0, least=1)
        tracer = Tracer()
        with tracer.installed():
            traced, _ = runner.window(seconds / 2.0, tracer, least=1)
        metrics = layer_metrics(tracer, traced, wall, memory)
        metrics["bench.calibration_loop_ms"] = 1e3 * statistics.fmean(s for _, s in runner.clock.samples)
        record["spans"] = tracer.spans
        record["traced_iter_s"] = traced
    else:
        wall, times = runner.window(seconds)
    tail_s, tail_pct, n = tail(times)

    outcomes = runner.outcomes
    failed = sum(o.failed for o in outcomes)
    ratios = [o.err_over_tol for o in outcomes if o.err_over_tol is not None]
    checks = {
        "bench.fail_frac": failed / len(outcomes),
        "bench.worst_err_over_tol": max(ratios) if ratios else 0.0,
    }
    if trace:
        checks["bench.nondeterministic_frac"] = len(differ) / len(warm_runs)
        metrics.update(checks)
        units = PER_LAYER
    else:
        metrics = {
            "iter_s_p50": statistics.median(times),
            "setup_s": setup_nominal,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    record.update(
        environment=environment(),
        iter_s=times,
        wall_iter_s=wall,
        scenario_wall_s=runner.scenario_s,
        calibration_loop_s=[s for _, s in runner.clock.samples],
        tail={"iter_s": tail_s, "percentile": tail_pct, "samples": n},
        setup={"import_s": import_s, "warmup_s": warm_s, "wall_s": setup_s, "nominal_s": setup_nominal},
        checks=checks,
        nondeterministic_scenarios=differ,
        failures=[(o.scenario, o.failures) for o in outcomes if o.failed],
        artifacts={"read_back": sum(o.artifacts for o in outcomes),
                   "with_sidecar_sha256": sum(o.artifacts_with_sha256 for o in outcomes)},
    )
    shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record["result"] = result
    return result, record


def report(result, record, stream):
    """Human-readable lines: environment, every metric with its unit, checks."""
    from bench.hostspeed import NOMINAL_S

    env = record["environment"]
    print(
        f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} "
        f"trace={record['trace']} nproc={env['nproc']} python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} {env['blas_version']} "
        f"threads={env['thread_env']} git={env['git_sha']}",
        file=stream,
    )
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}", file=stream)
    loops = record["calibration_loop_s"]
    print(f"# wall time, not scaled: iter_s_p50 {statistics.median(record['wall_iter_s']):.6g} s, "
          f"setup_s {record['setup']['wall_s']:.6g} s; calibration loop {1e3 * statistics.fmean(loops):.4g} ms "
          f"mean of {len(loops)} (nominal {1e3 * NOMINAL_S:.4g} ms)", file=stream)
    t = record["tail"]
    beyond = "" if t["samples"] >= 11 else ", the maximum: no percentile has ten beyond it"
    print(f"# iter_s_tail {t['iter_s']:.6g} s (p{t['percentile']:.4g} of {t['samples']} "
          f"iterations{beyond})", file=stream)
    for name, value in record["checks"].items():
        print(f"# {name} {value:.6g}", file=stream)
    if record["nondeterministic_scenarios"]:
        print(f"# summary.json differs on rerun: {record['nondeterministic_scenarios']}", file=stream)
    for scenario, reasons in record["failures"]:
        print(f"# FAILED {scenario}: {reasons}", file=stream)


def run_all(args):
    """Every workload in its own process, then one table of end-to-end metrics."""
    from bench.workloads import WORKLOADS

    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.toy:
            cmd.append("--toy")
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: benchmark exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        print(done.stdout.rstrip())
        rows[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": rows}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload")
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "evosq" / "__init__.py").is_file():
        print(f"evosq sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.all:
        return run_all(args)
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result, record = run_workload(
        args.workload, args.seed, args.seconds, args.trace, "toy" if args.toy else "full"
    )
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, default=str) + "\n")
    report(result, record, sys.stdout)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
