"""Layer trace recorded from outside the program.

:class:`Tracer` wraps evosq's public layer functions in every module
namespace that binds them (``evosq.cli`` binds ``build_warped_geometry`` at
import time, ``evosq.source_bvp`` binds the tensor steppers, the package
re-exports most of them), so every call path is seen. Hot methods
(``PairOperator.apply`` and each potential's ``on_slice``) are counted, not
spanned. Spans (name, start, end, parent, iteration) stay in memory until
the run ends; with ``track_memory`` the spans in ``MEMORY_SPANS`` (and any
span inside them) also record the tracemalloc peak they reached above their
starting allocation.
"""

import contextlib
import functools
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict

# Layer boundaries recorded as spans: module -> public functions.
SPANNED = {
    "cli": ("main",),
    "geometry": ("build_warped_geometry", "derivative_matrix", "conformal_potential"),
    "dnmap": (
        "propagation_chain",
        "compute_dn_family",
        "solve_interior",
        "riccati_integrate",
        "riccati_residual",
        "dn_mode_symbol",
        "conductivity_mode_dn",
        "conformal_identity_check",
    ),
    "evolution": ("evolve_trace", "evolve_tensor_forward", "evolve_tensor_backward", "evolved_rank_one"),
    "squared": ("apply_variant", "kernel_residual"),
    "source_bvp": ("solve_source_bvp", "dn_recovery_check", "layer_strip_check"),
    "probes": ("null_test", "shell_decomposition", "offdiagonal_flag", "gradient_blowup_probe", "zeta_pairing"),
    "exhaustion": ("load_mesh", "exhaustion_order", "verify_order", "collar_map_samples"),
    "io": ("write_matrix", "dump_json"),
}

EVOLVE_SPANS = ("evolution.evolve_tensor_forward", "evolution.evolve_tensor_backward")

# Layers whose allocation peak is measured. tracemalloc runs only inside
# them: on the Python-loop layers (mode sweep, exhaustion) it costs a
# tenfold slowdown and would push exhaustion past its time budget.
MEMORY_SPANS = ("dnmap.propagation_chain", "source_bvp.solve_source_bvp")


class Tracer:
    """Span and counter recorder; inactive unless :attr:`iteration` is set."""

    def __init__(self, track_memory=False):
        self.track_memory = track_memory
        self.iteration = None
        self.spans = []  # [name, start, end, parent_index, iteration, peak_bytes]
        self.counters = defaultdict(float)
        self._stack = []  # [span_index, start_bytes, max_bytes, owns_tracemalloc]
        self._open = defaultdict(int)
        self._eliminated = set()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.iteration, 0])
        owns = self.track_memory and name in MEMORY_SPANS and not tracemalloc.is_tracing()
        if owns:
            tracemalloc.start()
        cur = 0
        if tracemalloc.is_tracing():
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)
            tracemalloc.reset_peak()
        self._stack.append([len(self.spans) - 1, cur, cur, owns])
        self._open[name] += 1
        self.spans[-1][1] = time.perf_counter()
        return len(self.spans) - 1

    def _exit(self, index):
        end = time.perf_counter()
        span = self.spans[index]
        span[2] = end
        _, start_bytes, max_bytes, owns = self._stack.pop()
        self._open[span[0]] -= 1
        if tracemalloc.is_tracing():
            max_bytes = max(max_bytes, tracemalloc.get_traced_memory()[1])
            span[5] = max_bytes - start_bytes
            if owns:
                tracemalloc.stop()
            elif self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], max_bytes)

    def spanned(self, name, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.iteration is None:
                return fn(*args, **kwargs)
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if observe is not None:
                observe(self, name, args, kwargs, result, self.spans[index])
            return result

        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.iteration is not None:
                self.counters[name + ".calls"] += 1
                if name == "evolution.pair_apply" and any(self._open[s] for s in EVOLVE_SPANS):
                    self.counters["evolution.pair_apply.in_evolve"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def scenario_root(self):
        """Index of the outermost open span (the current ``cli.main`` call)."""
        return self._stack[0][0] if self._stack else None

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every spanned function wherever an evosq module binds it."""
        from evosq import evolution, potentials

        wrappers = {}
        for short, names in SPANNED.items():
            module = importlib.import_module(f"evosq.{short}")
            for fname in names:
                span = f"{short}.{fname}"
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self.spanned(span, fn, OBSERVERS.get(span)))
        modules = [m for n, m in sys.modules.items() if n == "evosq" or n.startswith("evosq.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        self._patch(evolution.PairOperator, "apply",
                    self.counted("evolution.pair_apply", evolution.PairOperator.apply))
        for cls in _subclasses(potentials.Potential):
            if "on_slice" in vars(cls):
                self._patch(cls, "on_slice", self.counted("potentials.on_slice", cls.on_slice))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _subclasses(sub)
    return out


# -- observers: counts taken at the layer boundary from arguments and results


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _observe_chain(tracer, name, args, kwargs, result, span):
    geometry, potential = _arg(args, kwargs, 0, "geometry"), _arg(args, kwargs, 1, "potential")
    K, N = geometry.ts.size, geometry.N
    tracer.counters["dnmap.propagation_chain.flop"] += (K - 2) * (8.0 / 3.0) * N**3
    key = (tracer.scenario_root(), geometry.hash(), potential.descriptor())
    if key in tracer._eliminated:
        tracer.counters["dnmap.propagation_chain.redundant"] += 1
    tracer._eliminated.add(key)


def _observe_evolve(tracer, name, args, kwargs, result, span):
    tracer.counters["evolution.implicit_steps"] += _arg(args, kwargs, 0, "pair_op").geometry.M


def _observe_samples(tracer, name, args, kwargs, result, span):
    tracer.counters["exhaustion.samples"] += result["growth_steps"] * result["samples_per_step"]


def _observe_write(tracer, name, args, kwargs, result, span):
    array = _arg(args, kwargs, 1, "array")
    ndim = getattr(array, "ndim", 2)
    tracer.counters["io.write_matrix.bytes"] += 5 + 4 + 4 * ndim + 8 * int(getattr(array, "size", 0))


OBSERVERS = {
    "dnmap.propagation_chain": _observe_chain,
    "evolution.evolve_tensor_forward": _observe_evolve,
    "evolution.evolve_tensor_backward": _observe_evolve,
    "exhaustion.collar_map_samples": _observe_samples,
    "io.write_matrix": _observe_write,
}


def aggregate(spans):
    """Per-name totals: inclusive seconds, self seconds, calls, peak bytes."""
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "peak_bytes": 0})
    for i, (name, start, end, parent, _, peak) in enumerate(spans):
        row = out[name]
        row["s"] += end - start
        row["self_s"] += end - start - child_time[i]
        row["calls"] += 1
        row["peak_bytes"] = max(row["peak_bytes"], peak)
    return dict(out)
