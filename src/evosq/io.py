"""Binary matrix files and JSON sidecars.

Format (little-endian throughout):

    bytes 0..4   magic ``EVSQ1``
    u32          rank
    u32 * rank   dimensions
    f64 * prod   payload, row-major (C order)

Every matrix file is accompanied by a JSON sidecar at ``<path>.json`` carrying
at least ``kind``, ``t``, ``N``, ``M``, ``geometry_hash`` and ``provenance``.
Round-trips are bit-exact; NaN payloads are refused at write time.
"""

import json
import struct
import warnings
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"EVSQ1"

SIDECAR_KEYS = ("kind", "t", "N", "M", "geometry_hash", "provenance")


def write_matrix(path, array, sidecar):
    """Write ``array`` (any rank) plus its JSON sidecar.

    Parameters
    ----------
    path : str or Path
        Target file; the sidecar goes to ``<path>.json``.
    array : ndarray
        Real float payload of rank at most 8, each dimension below 2**32
        (what :func:`read_matrix` reads back). NaNs are refused.
    sidecar : dict
        Must contain the keys in ``SIDECAR_KEYS``.
    """
    path = Path(path)
    arr = np.asarray(array, dtype="<f8", order="C")  # keeps a 0-d array's rank
    if arr.ndim > 8 or any(d >= 2**32 for d in arr.shape):
        raise FormatError(f"refusing to write shape {arr.shape} to {path}: rank <= 8, dims < 2**32")
    if np.isnan(arr).any():
        raise FormatError(f"refusing to write NaN payload to {path}")
    missing = [k for k in SIDECAR_KEYS if k not in sidecar]
    if missing:
        raise FormatError(f"sidecar for {path} missing keys: {missing}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.tobytes(order="C"))
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def read_matrix(path, expected_geometry_hash=None):
    """Read a matrix file, returning ``(array, sidecar)``.

    A sidecar whose ``geometry_hash`` disagrees with ``expected_geometry_hash``
    produces a ``UserWarning`` (the data is still returned); structural
    problems, a sidecar that is not a JSON object included, raise ``FormatError``.
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < len(MAGIC) + 4:
        raise FormatError(f"{path}: truncated header")
    if raw[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:len(MAGIC)]!r}")
    off = len(MAGIC)
    (rank,) = struct.unpack_from("<I", raw, off)
    off += 4
    if rank > 8:
        raise FormatError(f"{path}: implausible rank {rank}")
    if len(raw) < off + 4 * rank:
        raise FormatError(f"{path}: truncated dimension block")
    dims = struct.unpack_from(f"<{rank}I", raw, off)
    off += 4 * rank
    count = 1
    for d in dims:
        count *= d
    need = off + 8 * count
    if len(raw) != need:
        raise FormatError(f"{path}: payload size {len(raw) - off} != {8 * count}")
    try:
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(dims).copy()
    except ValueError as exc:  # an empty payload beside dims whose product numpy cannot hold
        raise FormatError(f"{path}: dimensions {dims} form no array: {exc}") from None

    sidecar_path = Path(str(path) + ".json")
    sidecar = None
    if sidecar_path.exists():
        try:
            with open(sidecar_path) as fh:
                sidecar = json.load(fh)
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise FormatError(f"{sidecar_path}: sidecar is not valid JSON: {exc}") from None
        if not isinstance(sidecar, dict):
            raise FormatError(f"{sidecar_path}: sidecar is not a JSON object")
        if (
            expected_geometry_hash is not None
            and sidecar.get("geometry_hash") != expected_geometry_hash
        ):
            warnings.warn(
                f"{path}: sidecar geometry_hash {sidecar.get('geometry_hash')!r} "
                f"does not match expected {expected_geometry_hash!r}",
                UserWarning,
                stacklevel=2,
            )
    return arr, sidecar


def dump_json(obj):
    """Canonical JSON text for summaries: sorted keys, stable floats, numpy values via tolist.

    As in matrix payloads, a NaN or an infinity is refused (``FormatError``).
    """
    try:
        text = json.dumps(
            obj, sort_keys=True, indent=2, allow_nan=False, default=lambda o: o.tolist()
        )
    except ValueError as exc:
        raise FormatError(f"refusing to write a non-finite value: {exc}") from None
    return text + "\n"
