"""Zeroth-order coefficients (potentials) on the collar.

A potential is a bounded function ``Q(theta, t)`` evaluated on boundary
nodes at a given depth. All implementations are vectorized over theta; the
rest of the package samples a potential only through :meth:`Potential.on_grid`.
"""

import hashlib

import numpy as np

from .errors import GeometryError


class Potential:
    def on_slice(self, theta, t):
        """Values at the boundary nodes ``theta`` on the slice at depth ``t``."""
        raise NotImplementedError

    def on_grid(self, theta, ts):
        """Values on a depth grid: row ``j`` is :meth:`on_slice` at ``ts[j]``."""
        return np.array([self.on_slice(theta, t) for t in ts], dtype=float)

    def descriptor(self):
        raise NotImplementedError


class ZeroPotential(Potential):
    def on_slice(self, theta, t):
        return np.zeros_like(np.asarray(theta, dtype=float))

    def descriptor(self):
        return ("zero",)


class ConstantPotential(Potential):
    def __init__(self, value):
        self.value = float(value)

    def on_slice(self, theta, t):
        return np.full_like(np.asarray(theta, dtype=float), self.value)

    def descriptor(self):
        return ("constant", round(self.value, 14))


class BumpPotential(Potential):
    """Compactly supported mollifier bump.

    ``Q = amplitude * exp(1 - 1/(1 - s^2))`` for ``s < 1`` and 0 outside,
    where ``s^2 = (d(theta, theta0)^2 + (t - t0)^2) / width^2`` and ``d`` is
    circular distance. Smooth, supported in a disk of radius ``width``.
    """

    def __init__(self, amplitude, theta0, t0, width):
        if width <= 0:
            raise GeometryError(f"bump width must be positive, got {width}")
        self.amplitude = float(amplitude)
        self.theta0 = float(theta0)
        self.t0 = float(t0)
        self.width = float(width)

    def on_slice(self, theta, t):
        return self._values(theta, (float(t) - self.t0) ** 2)

    def on_grid(self, theta, ts):
        """Every row in one broadcast over ``(ts, theta)``, bit for bit :meth:`on_slice`'s."""
        # squared as Python floats, as on_slice does: libm's pow(x, 2) and
        # numpy's x * x differ in the last bit for about one x in a thousand
        dt2 = np.array([(float(t) - self.t0) ** 2 for t in ts])
        return self._values(theta, dt2[:, None])

    def _values(self, theta, dt2):
        dth = np.angle(np.exp(1j * (np.asarray(theta, dtype=float) - self.theta0)))
        s2 = (dth**2 + dt2) / self.width**2
        out = np.zeros_like(s2)
        inside = s2 < 1.0
        out[inside] = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
        return out

    def descriptor(self):
        return (
            "bump",
            round(self.amplitude, 14),
            round(self.theta0, 14),
            round(self.t0, 14),
            round(self.width, 14),
        )


class SampledPotential(Potential):
    """Potential tabulated on a (theta, t) product grid: a table of node values.

    :meth:`on_slice` returns the stored column at a depth that is one of the
    ``t_grid`` nodes (a dict lookup), for the stored ``theta_grid`` nodes
    themselves; any other depth or node set is a :class:`GeometryError`. The
    table is built on one geometry's grids, the ones its reader samples.
    """

    def __init__(self, theta_grid, t_grid, values):
        self.theta_grid = np.asarray(theta_grid, dtype=float)
        self.t_grid = np.asarray(t_grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (self.theta_grid.size, self.t_grid.size):
            raise GeometryError("sampled potential: values shape mismatch")
        self._digest = hashlib.sha256(
            self.theta_grid.tobytes() + self.t_grid.tobytes() + self.values.tobytes()
        ).hexdigest()[:12]
        self._columns = {t: j for j, t in enumerate(self.t_grid.tolist())}

    def on_slice(self, theta, t):
        if not np.array_equal(theta, self.theta_grid):
            raise GeometryError("sampled potential: theta nodes do not match the geometry")
        j = self._columns.get(float(t))
        if j is None:
            raise GeometryError(f"sampled potential: depth {float(t)} is not a grid node")
        return self.values[:, j].copy()

    def descriptor(self):
        return ("sampled", self._digest)


def _finite(value, owner, name):
    """``value`` as a float; a boolean, a non-number, NaN or an infinity is an error."""
    try:
        x = None if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        x = None
    if x is None or not np.isfinite(x):
        raise GeometryError(f"{owner} needs a finite numeric {name}, got {value!r}")
    return x


_BUMP_DEFAULTS = {"amplitude": 1.0, "theta0": 0.0, "t0": 0.0, "width": 0.3}
# potential kind -> the keys its spec may hold besides "kind"
_SPEC_KEYS = {"zero": (), "constant": ("value",), "bump": tuple(_BUMP_DEFAULTS)}


def make_potential(spec):
    """Build a potential from a flat config dictionary; a key outside its kind is an error."""
    if spec is None:
        return ZeroPotential()
    if isinstance(spec, Potential):
        return spec
    if isinstance(spec, (int, float)):
        value = _finite(spec, "a constant potential", "value")
        return ConstantPotential(value) if value else ZeroPotential()
    if not isinstance(spec, dict):
        raise GeometryError(
            f"potential spec must be a number or an object with a 'kind', "
            f"got {type(spec).__name__}"
        )
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:
        raise GeometryError(f"unknown potential kind {kind!r}")
    unknown = sorted(map(str, set(spec) - {"kind", *_SPEC_KEYS[kind]}))
    if unknown:
        raise GeometryError(f"unknown keys for a {kind} potential: {', '.join(unknown)}")
    if kind == "zero":
        return ZeroPotential()
    if kind == "constant":
        return ConstantPotential(_finite(spec.get("value"), "constant potential", "'value'"))
    return BumpPotential(
        *(_finite(spec.get(k, d), "bump potential", repr(k)) for k, d in _BUMP_DEFAULTS.items())
    )
