"""Off-diagonal structure probes for recovered difference kernels.

The recovery pipeline certifies that a potential difference leaves a
visible imprint on boundary kernels away from the diagonal. These probes
quantify that imprint:

* :func:`null_test` runs both sweeps of the source problem with matching
  potentials and demands *exact* zeros in ``phi`` and ``psi`` (each step
  short-circuits on zero data, so any nonzero is a plumbing bug);
* :func:`shell_decomposition` splits kernel mass over dyadic bands of the
  off-diagonal distance and checks the bands partition the total;
* :func:`offdiagonal_flag` raises a flag when mass survives at distances
  bounded away from the diagonal;
* :func:`gradient_blowup_probe` estimates how the kernel gradient grows
  toward the diagonal, against the critical integrability exponent
  ``p = n / (n - 1)`` of the ambient dimension ``n = AMBIENT_DIM``;
* :func:`zeta_pairing` is a heuristic oscillatory pairing score with a
  slowly varying frequency cutoff (diagnostic only, nothing gates on it).
"""

import numpy as np

from .errors import GeometryError
from .exhaustion import smooth_min
from .source_bvp import solve_source_bvp

OFFDIAG_THRESHOLD = 1e-6
FAR_DISTANCE = np.pi / 8
AMBIENT_DIM = 3  # the n of the critical exponent n / (n - 1): a label that no geometry reads
P_CRITICAL = AMBIENT_DIM / (AMBIENT_DIM - 1.0)


def null_test(family1, family2):
    """Source problem with matching data must vanish identically."""
    stages = solve_source_bvp(family1, family2)
    worst = max(float(np.abs(stages[name]).max()) for name in ("phi", "psi"))
    lam = family1.lams[0]
    # Frobenius norm scaled by a power of two near max|lam|: exact, and no square overflows
    two = np.ldexp(1.0, int(np.frexp(np.abs(lam).max())[1]) - 1)
    x = lam / two
    scale = float(two * np.sqrt(np.einsum("ij,ij->", x, x)))
    return {"max_abs": worst, "scale": scale, "passed": worst <= 1e-10 * scale}


def _circular_distance(theta):
    d = np.abs(theta[:, None] - theta[None, :])
    return np.minimum(d, 2.0 * np.pi - d)


def resolvable_shells(N):
    return int(np.floor(np.log2(N / 4)))


def shell_decomposition(geometry, kernel, p=2.0):
    """Dyadic off-diagonal mass profile of a boundary kernel.

    Shell ``m`` collects node pairs with circular distance in
    ``(pi 2^{-m-1}, pi 2^{-m}]``; the remainder (including the diagonal)
    lands in a catch-all bin, so the bins partition all pairs. Mass is the
    weighted ell^p sum at the boundary slice. The shell count is limited by
    the grid: ``floor(log2(N / 4))`` bands stay wider than a node spacing.
    """
    kernel = np.asarray(kernel, dtype=float)
    N = geometry.N
    if kernel.shape != (N, N):
        raise GeometryError(f"kernel shape {kernel.shape} does not match N={N}")
    n_shells = resolvable_shells(N)
    if n_shells < 2:
        raise GeometryError(f"insufficient shells: N={N} resolves {n_shells} dyadic bands")
    d = _circular_distance(geometry.theta)
    w = geometry.node_weight(0.0)
    dens = np.abs(kernel) ** p * w * w
    total = float(dens.sum())
    edges = [(np.pi * 0.5 ** (m + 1), np.pi * 0.5**m) for m in range(n_shells)]
    masses = []
    covered = np.zeros_like(d, dtype=bool)
    for lo, hi in edges:
        mask = (d > lo) & (d <= hi)
        masses.append(float(dens[mask].sum()))
        covered |= mask
    catchall = float(dens[~covered].sum())
    return {
        "edges": edges,
        "masses": np.asarray(masses),
        "catchall": catchall,
        "total": total,
        "partition_defect": abs(sum(masses) + catchall - total),
        "n_shells": n_shells,
    }


def offdiagonal_flag(geometry, kernel):
    """Flag kernels with mass at distance >= pi/8 above ``OFFDIAG_THRESHOLD * total``."""
    prof = shell_decomposition(geometry, kernel)
    far = sum(
        m for (lo, _), m in zip(prof["edges"], prof["masses"]) if lo >= FAR_DISTANCE - 1e-12
    )
    scale = max(prof["total"], 1e-300)
    return {
        "far_mass": float(far),
        "total": prof["total"],
        "flag": far > OFFDIAG_THRESHOLD * scale,
        "profile": prof,
    }


def gradient_blowup_probe(geometry, W):
    """Shell profile of ``|grad phi|^p`` near the diagonal of a field on ``geometry.collar_ts``.

    ``W`` holds the field's first collar rows (all ``M+1``, or the rows a
    solve kept, at least 4); the probe reads slice 2 and a row on each side
    of it. Gradients are spectral in each boundary variable and centered in depth.
    The slope of the finest three shells (log2 of successive mass ratios)
    estimates the blow-up order toward the diagonal. The integrand power is
    the critical exponent :data:`P_CRITICAL`.
    """
    n_shells = resolvable_shells(geometry.N)
    if n_shells < 4:
        raise GeometryError(
            f"gradient probe needs at least 4 shells, N={geometry.N} resolves {n_shells}"
        )
    j = 2
    if W.shape[0] < 4:
        raise GeometryError(f"gradient probe needs an interior collar slice of {W.shape[0]} rows")
    k = geometry.wavenumbers()
    dx = np.real(np.fft.ifft(1j * k[:, None] * np.fft.fft(W[j], axis=0), axis=0))
    dy = np.real(np.fft.ifft(1j * k[None, :] * np.fft.fft(W[j], axis=1), axis=1))
    ts = geometry.collar_ts
    dt = (W[j + 1] - W[j - 1]) / (float(ts[j + 1]) - float(ts[j - 1]))
    grad = np.sqrt(dx**2 + dy**2 + dt**2)
    prof = shell_decomposition(geometry, grad, p=P_CRITICAL)
    masses = prof["masses"]
    finest = masses[-3:]
    with np.errstate(divide="ignore"):
        ratios = np.log2(np.maximum(finest[:-1], 1e-300) / np.maximum(finest[1:], 1e-300))
    return {"p": P_CRITICAL, "shell_masses": masses, "slope": float(np.mean(ratios)), "profile": prof}


def zeta_pairing(geometry, kernel):
    """Oscillatory off-diagonal pairing scores (heuristic diagnostic).

    Pairs the kernel against ``exp(i k (x - y))`` for k = 1, 2, 4, 8 at
    distances beyond ``FAR_DISTANCE``, with the frequency damped through a
    smoothed minimum against the slowly growing cutoff
    ``log(1 + log+(1/d))``. Scores have no pass or fail meaning; they track
    how oscillation-resolved the far field is.
    """
    kernel = np.asarray(kernel, dtype=float)
    d = _circular_distance(geometry.theta)
    w = geometry.node_weight(0.0)
    with np.errstate(divide="ignore"):
        ll = np.log1p(np.maximum(np.log(np.maximum(1.0 / np.maximum(d, 1e-300), 1.0)), 0.0))
    window = (d > FAR_DISTANCE).astype(float)
    scores = {}
    x = geometry.theta
    for kmode in (1, 2, 4, 8):
        damp = smooth_min(float(kmode), ll, 0.25)
        osc = np.cos(kmode * (x[:, None] - x[None, :]))
        scores[int(kmode)] = float(np.sum(kernel * osc * damp * window) * w * w)
    return scores
