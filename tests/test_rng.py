import numpy as np

from evosq.rng import SplitMix64


def _floats(rng, n):
    return [rng.next_float() for _ in range(n)]


def test_known_sequence(rng_vectors):
    # reference outputs for seed 0, shared by the standard implementations
    r = SplitMix64(0)
    got = np.array([r.next_u64() for _ in range(5)], dtype=np.uint64)
    assert np.array_equal(got, rng_vectors)


def test_seed_decorrelation():
    a = _floats(SplitMix64(1), 64)
    b = _floats(SplitMix64(2), 64)
    assert not np.allclose(a, b)


def test_float_range():
    f = np.asarray(_floats(SplitMix64(7), 10_000))
    assert f.min() >= 0.0 and f.max() < 1.0
    # coarse uniformity, deterministic seed
    assert abs(f.mean() - 0.5) < 0.02


def test_normals_moments():
    z = np.asarray(SplitMix64(11).normals(20_000))
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


def test_reproducible():
    assert _floats(SplitMix64(123), 10) == _floats(SplitMix64(123), 10)
