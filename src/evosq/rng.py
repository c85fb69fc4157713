"""Deterministic 64-bit stream generator (splitmix-style).

The contract is bit-for-bit reproducibility of scenario inputs across
platforms: same seed, same stream, no dependence on numpy's generator
versioning. The mixer is the standard splitmix64 finalizer.
"""

import math

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """64-bit generator with a fixed additive constant and finalizer."""

    def __init__(self, seed):
        self._state = int(seed) & _MASK

    def next_u64(self):
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def next_float(self):
        """Uniform double in [0, 1) built from the top 53 bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def normals(self, n):
        """Standard normals via Box-Muller on the deterministic stream."""
        out = []
        while len(out) < n:
            u1 = self.next_float()
            u2 = self.next_float()
            if u1 <= 0.0:
                continue
            r = math.sqrt(-2.0 * math.log(u1))
            out.append(r * math.cos(2.0 * math.pi * u2))
            if len(out) < n:
                out.append(r * math.sin(2.0 * math.pi * u2))
        return out[:n]
