"""Warped-product collar geometries on a circle or flat-torus boundary.

A geometry is the cylinder ``[0, T] x boundary`` carrying the metric
``dt^2 + r(t)^2 dtheta^2`` with a strictly positive warping profile ``r``.
Depth ``t`` increases away from the boundary slice ``t = 0``; the manifold is
closed off at ``t = T`` either by a Dirichlet cap or, for the disk, by the
coordinate center (handled one cell early with a per-mode decay condition).

Discretization: ``N`` equispaced boundary nodes (spectral in the angular
variables) and a conservative three-point scheme in depth (:mod:`evosq.dnmap`).
The collar grid is ``t_j = j * eps / M``; the full grid extends it to the cap
with a matching step so one elimination sweep serves every collar depth.

Sign conventions (fixed here, relied on everywhere else): the interior
equation is ``(w u_t)_t - w (L_t + Q) u = 0`` with ``w = r^dim`` and the
*positive* slice operator ``L_t`` (Fourier symbol ``(k / r(t))^2``), and the
induced boundary map is ``f -> -du/dt`` at the slice, positive semi-definite.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError
from .potentials import SampledPotential

TWO_PI = 2.0 * np.pi
MAX_DEPTH_NODES = 10**6  # full-grid node bound; the disk at M=512 has about 1 700
MAX_BOUNDARY_NODES = 2**14  # N**dim bound; one dense slice operator at 2**14 nodes is 2 GiB


# ---------------------------------------------------------------------------
# warping profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Profile:
    """Linear warping function ``r(t) = 1 + slope * t`` on ``[0, T]``.

    ``name`` is ``disk``, ``annulus`` or ``flat-cylinder``; ``T`` is the cap
    depth; ``cap`` is ``dirichlet`` (value pinned to zero at ``T``) or
    ``center`` (per-mode decay condition one cell before ``T``); ``params``
    are the construction parameters the descriptor records. A march window
    is a row range of one geometry's grid, not a profile of its own.
    """

    name: str
    T: float
    cap: str
    slope: float
    params: tuple = ()

    def r(self, t):
        return 1.0 + self.slope * np.asarray(t, dtype=float)

    def rp(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.slope)

    def descriptor(self):
        return (self.name,) + self.params


# profile name -> each parameter it takes, with its default
PROFILE_PARAMS = {"disk": {}, "annulus": {"rho": 0.25}, "flat-cylinder": {"T": 1.0}}


def make_profile(name, **params):
    """Build a named profile from its ``PROFILE_PARAMS`` row.

    ``disk``: r = 1 - t, T = 1, center cap.
    ``annulus``: r = 1 - t, T = 1 - rho, Dirichlet cap (requires 0 < rho < 1).
    ``flat-cylinder``: r = 1, Dirichlet cap at depth ``T``.

    A parameter outside the profile's row is an error.
    """
    if not isinstance(name, str) or name not in PROFILE_PARAMS:
        raise GeometryError(f"invalid profile: unknown name {name!r}")
    unknown = sorted(set(params) - set(PROFILE_PARAMS[name]))
    if unknown:
        raise GeometryError(f"invalid profile: {name} takes no {', '.join(unknown)}")
    params = {**PROFILE_PARAMS[name], **params}
    if name == "disk":
        return Profile("disk", 1.0, "center", -1.0)
    if name == "annulus":
        rho = float(params["rho"])
        if not 0.0 < rho < 1.0:
            raise GeometryError(f"invalid profile: annulus rho={rho}")
        return Profile("annulus", 1.0 - rho, "dirichlet", -1.0, (round(rho, 12),))
    T = float(params["T"])
    if not T > 0:  # NaN too
        raise GeometryError(f"invalid profile: flat-cylinder T={T}")
    return Profile("flat-cylinder", T, "dirichlet", 0.0, (round(T, 12),))


# ---------------------------------------------------------------------------
# finite-difference weights (Fornberg) on possibly non-uniform nodes
# ---------------------------------------------------------------------------


def fd_weights(x, x0, m):
    """Weights of derivative order ``m`` at ``x0`` on nodes ``x``.

    Fornberg's recursion (Math. Comp. 51, 1988); exact for polynomials up
    to degree ``n - 1`` on ``n`` nodes. It runs once over stacked stencils:
    ``x`` is ``(..., n)`` and ``x0`` broadcasts against ``x[..., 0]``, and
    the weights come back as ``(..., n)``. Each stencil's weights take the
    same floating-point steps as a scalar run of the recursion would.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    c = np.zeros((n, m + 1) + x.shape[:-1])  # c[node, order] is one value per stencil
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[..., 0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[..., i] - x0
        for j in range(i):
            c3 = x[..., i] - x[..., j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return np.moveaxis(c[:, m], 0, -1)


def derivative_matrix(ts, order):
    """Dense differentiation matrix on the node set ``ts``.

    Interior rows use the 3-point stencil, all in one :func:`fd_weights`
    call; end rows widen to keep second order (3 points for first
    derivatives, 4 for second).
    """
    ts = np.asarray(ts, dtype=float)
    K = ts.size
    npts = 3 if order == 1 else 4
    D = np.zeros((K, K))
    rows = np.arange(1, K - 1)[:, None]
    idx = rows + np.arange(-1, 2)
    D[rows, idx] = fd_weights(ts[idx], ts[1:-1], order)
    for j, ends in ((0, np.arange(min(npts, K))), (K - 1, np.arange(max(0, K - npts), K))):
        D[j, ends] = fd_weights(ts[ends], ts[j], order)
    return D


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


@dataclass
class WarpedGeometry:
    """Discretized warped collar.

    ``ts`` is the full depth grid (collar prefix of ``M + 1`` nodes with step
    ``eps / M``, then a near-matching step to the cap). For a Dirichlet cap
    the final node sits at ``T``; for a center cap the grid stops one cell
    short and the radii ``rs[-2]``, ``rs[-1]`` of its last two nodes set the
    per-mode decay across the capped cell.
    """

    dim: int
    N: int
    M: int
    eps: float
    profile: Profile
    theta: np.ndarray
    ts: np.ndarray
    rs: np.ndarray
    _d2_unit: np.ndarray = field(default=None, repr=False)

    # -- grids ------------------------------------------------------------

    @property
    def collar_ts(self):
        return self.ts[: self.M + 1]

    @property
    def cap(self):
        return self.profile.cap

    def mu(self, t):
        return self.dim * np.log(self.profile.r(t) / self.profile.r(0.0))

    def mu_dot(self, t):
        return self.dim * self.profile.rp(t) / self.profile.r(t)

    def node_weight(self, t):
        """Quadrature weight of one boundary node on the slice at depth t."""
        return float(self.profile.r(t)) ** self.dim * (TWO_PI / self.N) ** self.dim

    # -- spectral slice operator ------------------------------------------

    def wavenumbers(self):
        return np.fft.fftfreq(self.N, d=1.0 / self.N)

    def d2_unit(self):
        """Matrix of the positive operator ``-d^2/dtheta^2`` at radius 1."""
        if self._d2_unit is None:
            if self.dim != 1:
                raise GeometryError("dense slice operators are circle-only")
            self._d2_unit = fourier_matrix(self.wavenumbers() ** 2)
        return self._d2_unit

    def laplacian_matrix(self, t):
        return self.d2_unit() / float(self.profile.r(t)) ** 2

    def hash(self):
        parts = (
            self.dim,
            self.N,
            self.M,
            round(self.eps, 14),
            self.profile.descriptor(),
            self.profile.cap,
            round(self.profile.T, 14),
        )
        return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def fourier_matrix(symbol):
    """Symmetric circulant matrix of the Fourier multiplier ``symbol`` (one value per FFT wavenumber).

    Entry ``(i, j)`` is ``c[(i - j) % N]`` with ``c = real(ifft(symbol))``,
    symmetrized as ``(c[m] + c[-m]) / 2``, so the matrix is exactly symmetric
    and circulant. It is how the propagation chain materializes the kept
    blocks it eliminates per mode.
    """
    c = np.real(np.fft.ifft(symbol))
    m = np.arange(c.size)
    c = 0.5 * (c + c[-m])
    return c[np.subtract.outer(m, m) % m.size]


def build_warped_geometry(profile, N, M, eps, dim=1):
    """Assemble a :class:`WarpedGeometry`.

    Parameters
    ----------
    profile : Profile or str
        Warping profile, or a name accepted by :func:`make_profile`.
    N : int
        Boundary nodes (per axis for ``dim=2``); even, at least 8.
    M : int
        Collar steps; the collar grid is ``t_j = j * eps / M``.
    eps : float
        Collar depth; must leave room before the cap.
    dim : int
        1 for a circle boundary, 2 for a flat torus.
    """
    if isinstance(profile, str):
        profile = make_profile(profile)
    if dim not in (1, 2):
        raise GeometryError(f"dimension_tag must be 1 or 2, got {dim}")
    if N < 8 or N % 2:
        raise GeometryError(f"N must be even and >= 8, got {N}")
    if M < 8:
        raise GeometryError(f"M must be >= 8, got {M}")
    if N**dim > MAX_BOUNDARY_NODES:
        raise GeometryError(
            f"problem too large: N={N} with dim={dim} gives more than {MAX_BOUNDARY_NODES} "
            "boundary nodes"
        )
    T = profile.T
    h = eps / M
    if not 0.0 < eps < T:
        raise GeometryError(f"depth exceeds manifold: eps={eps}, cap T={T}")

    nodes = M + 1 + (T - eps) * M / eps  # collar plus the tail at the collar step
    if nodes > MAX_DEPTH_NODES:
        raise GeometryError(
            f"depth grid too large: eps={eps} with M={M} needs {nodes:.4g} nodes, "
            f"above {MAX_DEPTH_NODES}"
        )
    collar = np.linspace(0.0, eps, M + 1)
    J2 = max(2, int(round((T - eps) / h)))
    tail = np.linspace(eps, T, J2 + 1)[1:]
    ts = np.concatenate([collar, tail])
    if profile.cap == "center":
        ts = ts[:-1]  # last cell carries the decay condition instead of a node
    if ts.size < M + 3:
        raise GeometryError("depth exceeds manifold: no room between eps and the cap")

    rs = np.asarray(profile.r(ts), dtype=float)
    if np.any(rs <= 0.0):
        raise GeometryError("invalid profile: r must stay positive on the grid")

    theta = TWO_PI * np.arange(N) / N
    return WarpedGeometry(dim, N, M, float(eps), profile, theta, ts, rs)


# ---------------------------------------------------------------------------
# conformal reduction
# ---------------------------------------------------------------------------


def conformal_potential(geometry, gamma, n_ambient):
    """Schroedinger potential of a conformal factor.

    For ``sigma = gamma^(n/2 - 1)`` the function ``sigma^(1/2) u`` solves the
    zeroth-order equation with potential ``Q = (D sigma^(1/2)) / sigma^(1/2)``
    whenever ``u`` solves the conductivity equation, where ``D`` is the
    interior operator in this module's sign convention. Returns the potential
    sampled on the full depth grid together with the boundary correction
    ``d_nu sigma^(1/2)`` at ``t = 0`` (outward normal, ``d_nu = -d/dt``).

    ``gamma`` is a callable of the depth ``t``.
    """
    if n_ambient < 3:
        raise GeometryError(f"conformal reduction needs ambient dim >= 3, got {n_ambient}")
    ts = geometry.ts
    vals = np.asarray(gamma(ts), dtype=float).reshape(1, ts.size)
    if not np.all((vals > 0.0) & (vals < np.inf)):  # NaN fails both
        raise GeometryError("conformal factor must be positive and finite")

    # a t-only factor is reduced on a single row and broadcast over theta
    shalf = vals ** (0.5 * (0.5 * n_ambient - 1.0))  # sigma^(1/2)
    dt_s = shalf @ derivative_matrix(ts, 1).T
    dtt_s = shalf @ derivative_matrix(ts, 2).T
    mu_dot = np.asarray(geometry.mu_dot(ts), dtype=float)
    Q = np.broadcast_to((dtt_s + mu_dot[None, :] * dt_s) / shalf, (geometry.N, ts.size))
    pot = SampledPotential(geometry.theta.copy(), ts.copy(), Q.copy())
    correction = np.full(geometry.N, -dt_s[0, 0])
    return pot, correction  # correction = d_nu sigma^(1/2) at t=0, d_nu = -d/dt
