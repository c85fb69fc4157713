import numpy as np
import pytest

from evosq.errors import GeometryError
from evosq.potentials import (
    BumpPotential,
    ConstantPotential,
    SampledPotential,
    ZeroPotential,
    make_potential,
)

THETA = 2 * np.pi * np.arange(16) / 16


def test_zero_and_constant():
    assert np.all(ZeroPotential().on_slice(THETA, 0.2) == 0.0)
    c = ConstantPotential(2.5)
    assert np.all(c.on_slice(THETA, 0.7) == 2.5)


def test_bump_support_and_peak():
    b = BumpPotential(amplitude=3.0, theta0=1.0, t0=0.1, width=0.4)
    vals = b.on_slice(THETA, 0.1)
    # peak value amplitude at the center, zero outside radius `width`
    assert np.isclose(b.on_slice(np.array([1.0]), 0.1)[0], 3.0)
    far = np.abs(np.angle(np.exp(1j * (THETA - 1.0)))) >= 0.4
    assert np.all(vals[far] == 0.0)
    assert vals.max() > 0
    # support also bounded in depth
    assert np.all(b.on_slice(THETA, 0.6) == 0.0)


def test_bump_wraps_around_circle():
    b = BumpPotential(amplitude=1.0, theta0=0.05, t0=0.0, width=0.3)
    # node just below 2*pi is circularly close to theta0
    v = b.on_slice(np.array([2 * np.pi - 0.05]), 0.0)
    assert v[0] > 0.5


def test_bump_width_validation():
    with pytest.raises(GeometryError, match="width"):
        BumpPotential(1.0, 0.0, 0.0, 0.0)


def test_sampled_exact_node_lookup():
    ts = np.linspace(0.0, 1.0, 11)
    vals = np.cos(THETA)[:, None] * np.exp(ts)[None, :]
    p = SampledPotential(THETA, ts, vals)
    # node depths return stored columns exactly, no spline round-off
    assert np.array_equal(p.on_slice(THETA, ts[4]), vals[:, 4])


def test_sampled_depth_off_a_node_is_refused():
    # an exact node is looked up; a depth 1e-13 or 1e-6 off is refused
    ts = np.linspace(0.0, 1.0, 11)
    vals = np.cos(THETA)[:, None] * np.exp(ts)[None, :]
    p = SampledPotential(THETA, ts, vals)
    exact = p.on_slice(THETA, ts[4])
    assert np.array_equal(exact, vals[:, 4])
    exact[:] = 0.0  # a copy, not a view of the table
    assert np.array_equal(p.on_slice(THETA, ts[4]), vals[:, 4])
    assert ts[4] + 1e-13 != ts[4]
    for off in (1e-13, 1e-6):
        with pytest.raises(GeometryError, match="not a grid node"):
            p.on_slice(THETA, ts[4] + off)
    with pytest.raises(GeometryError, match="theta nodes"):
        p.on_slice(THETA + 0.01, ts[4])


def test_sampled_between_nodes_is_an_error():
    ts = np.linspace(0.0, 1.0, 41)
    p = SampledPotential(THETA, ts, np.zeros((16, 41)))
    with pytest.raises(GeometryError, match="not a grid node"):
        p.on_slice(THETA, 0.333)


def test_sampled_theta_mismatch():
    ts = np.linspace(0.0, 1.0, 11)
    p = SampledPotential(THETA, ts, np.zeros((16, 11)))
    with pytest.raises(GeometryError, match="theta nodes"):
        p.on_slice(THETA + 0.01, 0.5)
    with pytest.raises(GeometryError, match="theta nodes"):
        p.on_slice(THETA[:8], 0.5)


def test_sampled_depth_range():
    ts = np.linspace(0.0, 0.5, 11)
    p = SampledPotential(THETA, ts, np.zeros((16, 11)))
    with pytest.raises(GeometryError, match="not a grid node"):
        p.on_slice(THETA, 0.7)


def test_sampled_shape_validation():
    with pytest.raises(GeometryError, match="shape"):
        SampledPotential(THETA, np.linspace(0, 1, 5), np.zeros((16, 7)))


_GRID_TS = np.linspace(0.0, 0.5, 11)
_SAMPLED = SampledPotential(
    THETA, _GRID_TS, np.cos(THETA)[:, None] * np.exp(_GRID_TS)[None, :]
)


@pytest.mark.parametrize(
    "potential",
    [
        ZeroPotential(),
        ConstantPotential(2.5),
        BumpPotential(amplitude=3.0, theta0=1.0, t0=0.1, width=0.4),
        _SAMPLED,
    ],
    ids=["zero", "constant", "bump", "sampled"],
)
def test_on_grid_stacks_on_slice_rows(potential):
    ts = np.r_[_GRID_TS[:7], _GRID_TS[:7] + 0.013]  # grid nodes and off-node depths
    if isinstance(potential, SampledPotential):
        ts = _GRID_TS[:7]  # a node table answers at its nodes only
    grid = potential.on_grid(THETA, ts)
    assert grid.dtype == float and grid.shape == (ts.size, THETA.size)
    assert np.array_equal(grid, np.stack([potential.on_slice(THETA, t) for t in ts]))


def test_make_potential_dispatch():
    assert isinstance(make_potential(None), ZeroPotential)
    assert isinstance(make_potential(0), ZeroPotential)
    assert isinstance(make_potential(1.5), ConstantPotential)
    assert isinstance(make_potential({"kind": "zero"}), ZeroPotential)
    assert isinstance(make_potential({"kind": "constant", "value": 2.0}), ConstantPotential)
    b = make_potential({"kind": "bump", "amplitude": 2.0, "theta0": 1.0, "t0": 0.1, "width": 0.4})
    assert isinstance(b, BumpPotential)
    p = ZeroPotential()
    assert make_potential(p) is p
    with pytest.raises(GeometryError, match="unknown potential"):
        make_potential({"kind": "wavelet"})


def test_make_potential_rejects_malformed_specs():
    with pytest.raises(GeometryError, match="must be a number or an object"):
        make_potential("constant")
    with pytest.raises(GeometryError, match="numeric 'value'"):
        make_potential({"kind": "constant"})
    with pytest.raises(GeometryError, match="numeric 'value'"):
        make_potential({"kind": "constant", "value": "big"})


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"kind": "constant", "value": 1, "amp": 2}, "amp"),
        ({"kind": "bump", "amplitud": 5}, "amplitud"),
        ({"kind": "zero", "value": 1}, "value"),
    ],
)
def test_make_potential_rejects_a_key_outside_its_kind(spec, key):
    # a misspelt key would otherwise leave its default in place
    with pytest.raises(GeometryError, match=f"unknown keys for a {spec['kind']} potential: {key}$"):
        make_potential(spec)


@pytest.mark.parametrize(
    "spec",
    [
        np.nan,
        -np.inf,
        True,
        {"kind": "constant", "value": np.inf},
        {"kind": "constant", "value": False},
        {"kind": "bump", "amplitude": np.inf},
        {"kind": "bump", "t0": np.nan},
        {"kind": "bump", "theta0": -np.inf},
        {"kind": "bump", "width": True},
    ],
)
def test_make_potential_rejects_non_finite_and_boolean_numbers(spec):
    # a NaN or infinite potential is no potential; a boolean is not a number
    with pytest.raises(GeometryError, match="needs a finite numeric"):
        make_potential(spec)


def test_bump_on_grid_is_bit_identical_to_its_stacked_slices():
    # random bumps, centres near theta = +-pi where the circular distance
    # wraps, and depths on both sides of the support
    rng = np.random.default_rng(19)
    theta = 2 * np.pi * np.arange(64) / 64
    outside = inside = 0
    for i in range(60):
        centre = (np.pi if i % 2 else -np.pi) + rng.uniform(-0.1, 0.1) if i % 3 else rng.uniform(-4, 4)
        bump = BumpPotential(rng.uniform(-40, 40), centre, rng.uniform(0, 0.5), rng.uniform(0.02, 0.6))
        ts = np.sort(rng.uniform(-0.4, 1.2, 400))
        grid = bump.on_grid(theta, ts)
        assert grid.dtype == float and grid.shape == (ts.size, theta.size)
        assert np.array_equal(grid, np.stack([bump.on_slice(theta, t) for t in ts]))
        zero = ~np.any(grid, axis=1)
        outside, inside = outside + zero.sum(), inside + (~zero).sum()
    assert outside > 4000 and inside > 4000
