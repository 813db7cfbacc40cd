"""The snapshot array codec.

Every fitted array a model persists (Markov counts, classifier tables,
discretizer edges) travels inside the registry's canonical-JSON
document as one packed object::

    {"data": "<base64 of the little-endian bytes>", "dtype": "<f8",
     "shape": [13, 6]}

Packing keeps the raw bytes, so a restored array is bitwise the saved
one (NaN payloads and ``-0.0`` included), re-packing it reproduces the
same text, and a load decodes base64 instead of parsing one JSON float
per element.  :func:`unpack_array` checks only the container (dtype,
shape, byte count); each model's ``from_dict`` then runs its own value
checks.
"""

from __future__ import annotations

import base64
from typing import Dict

import numpy as np

__all__ = ["pack_array", "unpack_array"]

#: The dtypes a snapshot stores: float64 tables, int64 parent indices
#: and boolean masks, all little-endian.
_DTYPES = {s: np.dtype(s) for s in ("<f8", "<i8", "|b1")}


def pack_array(array: np.ndarray) -> Dict:
    """JSON-ready packed form of ``array`` (C order, little-endian)."""
    arr = np.asarray(array)
    arr = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    return {
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def unpack_array(payload: Dict, dtype: str) -> np.ndarray:
    """Decode an array packed by :func:`pack_array`.

    ``dtype`` is the one dtype the caller accepts (``"<f8"``,
    ``"<i8"`` or ``"|b1"``).  Raises ``ValueError`` when the stored
    dtype differs, the shape is not a list of sizes, the data is not
    base64, its byte count does not match the shape, or a boolean
    array holds a byte other than 0 or 1.  The result is writable.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"packed array must be an object, got {type(payload).__name__}"
        )
    if payload.get("dtype") != dtype:
        raise ValueError(
            f"packed array dtype {payload.get('dtype')!r} is not {dtype!r}"
        )
    want = _DTYPES[dtype]
    shape = payload.get("shape")
    if not isinstance(shape, list):
        raise ValueError(f"packed array shape {shape!r} is not a size list")
    need = want.itemsize
    for size in shape:
        if type(size) is not int or size < 0:
            raise ValueError(
                f"packed array shape {shape!r} is not a size list")
        need *= size
    data = payload.get("data")
    if not isinstance(data, str):
        raise ValueError("packed array data is not a base64 string")
    raw = base64.b64decode(data, validate=True)
    if len(raw) != need:
        raise ValueError(
            f"packed array holds {len(raw)} bytes; shape {tuple(shape)} "
            f"of {dtype} needs {need}"
        )
    if want.kind == "b" and raw.translate(None, b"\x00\x01"):
        raise ValueError("packed boolean array holds a byte other than 0/1")
    # A copy owns its memory: a view would keep a memoryview and its
    # buffer alive per array, objects the cyclic GC then walks forever.
    return np.frombuffer(raw, dtype=want).reshape(shape).copy()
