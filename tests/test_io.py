import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evosq.errors import FormatError
from evosq.io import (
    MAGIC,
    SIDECAR_KEYS,
    dump_json,
    read_matrix,
    write_matrix,
)


def _sidecar(**over):
    base = {
        "kind": "test",
        "t": 0.0,
        "N": 4,
        "M": 2,
        "geometry_hash": "abc123",
        "provenance": "unit test",
    }
    base.update(over)
    return base


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    arr = rng.standard_normal((3, 4, 5))
    p = tmp_path / "field.evsq"
    write_matrix(p, arr, _sidecar())
    back, side = read_matrix(p)
    assert back.dtype == np.float64
    assert np.array_equal(back, arr)
    assert back.tobytes() == arr.astype("<f8").tobytes()
    for key in SIDECAR_KEYS:
        assert key in side


def test_rank_one_round_trip(tmp_path):
    arr = np.linspace(-1.0, 1.0, 7)
    p = tmp_path / "vec.evsq"
    write_matrix(p, arr, _sidecar())
    back, _ = read_matrix(p)
    assert back.shape == (7,)
    assert np.array_equal(back, arr)


def test_zero_rank_round_trip(tmp_path):
    arr = np.array(2.5)
    p = tmp_path / "scalar.evsq"
    write_matrix(p, arr, _sidecar())
    back, _ = read_matrix(p)
    assert back.shape == ()
    assert back == arr


@pytest.mark.parametrize("shape", [(1,) * 9, (0, 2**32)], ids=["rank-9", "dim-2**32"])
def test_unreadable_shape_refused(tmp_path, shape):
    p = tmp_path / "big.evsq"
    with pytest.raises(FormatError, match="refusing to write shape"):
        write_matrix(p, np.empty(shape), _sidecar())
    assert not p.exists()


def test_nan_refused(tmp_path):
    arr = np.ones((2, 2))
    arr[0, 1] = np.nan
    with pytest.raises(FormatError, match="NaN"):
        write_matrix(tmp_path / "bad.evsq", arr, _sidecar())


def test_missing_sidecar_key(tmp_path):
    side = _sidecar()
    del side["geometry_hash"]
    with pytest.raises(FormatError, match="missing"):
        write_matrix(tmp_path / "bad.evsq", np.ones(3), side)


def test_bad_magic(tmp_path):
    p = tmp_path / "junk.evsq"
    p.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        read_matrix(p)


def test_truncated_payload(tmp_path):
    p = tmp_path / "short.evsq"
    write_matrix(p, np.ones((4, 4)), _sidecar())
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(FormatError, match="payload size"):
        read_matrix(p)


def test_truncated_header(tmp_path):
    p = tmp_path / "stub.evsq"
    p.write_bytes(MAGIC[:3])
    with pytest.raises(FormatError, match="truncated"):
        read_matrix(p)


def test_implausible_rank(tmp_path):
    p = tmp_path / "rank.evsq"
    p.write_bytes(MAGIC + struct.pack("<I", 99))
    with pytest.raises(FormatError, match="rank"):
        read_matrix(p)


_DIM = st.one_of(st.sampled_from([0, 1, 2, 3, 2**31, 2**32 - 1]), st.integers(0, 2**32 - 1))


@st.composite
def _damaged_files(draw):
    """Header and payload with a wrong magic, rank, dimension, size or length, or none of these."""
    magic = draw(st.sampled_from([MAGIC, MAGIC, b"EVSQ2", b"NOPE!"]))
    dims = draw(st.lists(_DIM, max_size=10))
    rank = draw(st.one_of(st.just(len(dims)), st.integers(0, 2**32 - 1)))
    count = math.prod(dims)
    size = 8 * count if count <= 64 else draw(st.integers(0, 64))
    size += draw(st.sampled_from([0, 0, 8, -8, 3]))  # right-sized or mis-sized
    payload = draw(st.binary(min_size=max(size, 0), max_size=max(size, 0)))
    raw = magic + struct.pack(f"<{1 + len(dims)}I", rank, *dims) + payload
    return raw[: draw(st.one_of(st.just(len(raw)), st.integers(0, len(raw))))]  # or truncated


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_damaged_files())
@example(MAGIC + struct.pack("<4I", 3, 2**32 - 1, 2**32 - 1, 0))
@example(MAGIC + struct.pack("<4I", 3, 2**32 - 1, 0, 2**31))
def test_a_damaged_file_reads_or_raises_format_error_only(tmp_path_factory, raw):
    p = tmp_path_factory.getbasetemp() / "fuzz.evsq"
    p.write_bytes(raw)
    try:
        arr, _ = read_matrix(p)
    except FormatError:
        return
    # a file that reads is exactly its header and its payload
    assert raw[: len(MAGIC)] == MAGIC and struct.unpack_from("<I", raw, len(MAGIC)) == (arr.ndim,)
    off = len(MAGIC) + 4 + 4 * arr.ndim
    assert struct.unpack_from(f"<{arr.ndim}I", raw, len(MAGIC) + 4) == arr.shape
    assert raw[off:] == arr.astype("<f8").tobytes()


def test_hash_mismatch_warns_but_returns(tmp_path):
    p = tmp_path / "field.evsq"
    arr = np.eye(3)
    write_matrix(p, arr, _sidecar(geometry_hash="aaaa"))
    with pytest.warns(UserWarning, match="geometry_hash"):
        back, side = read_matrix(p, expected_geometry_hash="bbbb")
    assert np.array_equal(back, arr)
    assert side["geometry_hash"] == "aaaa"


def test_hash_match_is_silent(tmp_path, recwarn):
    p = tmp_path / "field.evsq"
    write_matrix(p, np.eye(2), _sidecar(geometry_hash="cccc"))
    read_matrix(p, expected_geometry_hash="cccc")
    assert not [w for w in recwarn.list if issubclass(w.category, UserWarning)]


@pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
def test_bad_sidecar_raises_format_error(tmp_path, text):
    p = tmp_path / "field.evsq"
    write_matrix(p, np.eye(2), _sidecar())
    (tmp_path / "field.evsq.json").write_text(text)
    for expected in (None, "abc123"):
        with pytest.raises(FormatError, match="sidecar"):
            read_matrix(p, expected_geometry_hash=expected)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf])
def test_dump_json_refuses_non_finite(value):
    with pytest.raises(FormatError, match="non-finite"):
        dump_json({"results": [1.0, value]})


def test_dump_json_deterministic():
    a = dump_json({"b": 1, "a": [1.5, 2.25]})
    b = dump_json({"a": [1.5, 2.25], "b": 1})
    assert a == b
    assert a.endswith("\n")
