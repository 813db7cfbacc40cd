"""Tests for the snapshot array codec (``core/arrays.py``)."""

import base64
import json

import numpy as np
import pytest

from repro.core.arrays import pack_array, unpack_array


@pytest.mark.parametrize("array,dtype", [
    (np.array([[0.0, -0.0], [np.nan, np.inf], [1e-310, -2.5]]), "<f8"),
    (np.array([[True, False, True]]), "|b1"),
    (np.array([-1, 0, 7], dtype=np.int64), "<i8"),
    (np.zeros((0, 3)), "<f8"),
    (np.float64(3.25), "<f8"),
])
def test_round_trip_is_bitwise_and_writable(array, dtype):
    packed = pack_array(array)
    assert packed["dtype"] == dtype
    # JSON text round trip, as inside a snapshot document.
    back = unpack_array(json.loads(json.dumps(packed)), dtype)
    assert back.shape == np.shape(array)
    assert back.dtype == np.asarray(array).dtype
    assert back.tobytes() == np.asarray(array).tobytes()
    assert pack_array(back) == packed
    assert back.flags.writeable
    # Owns its bytes: no memoryview left alive per restored array.
    assert back.flags.owndata


def test_non_contiguous_input_packs_in_c_order():
    base = np.arange(12, dtype=float).reshape(3, 4)
    assert unpack_array(pack_array(base.T), "<f8").tolist() == base.T.tolist()


def test_big_endian_input_packs_little_endian():
    array = np.array([1.5, -2.0], dtype=">f8")
    packed = pack_array(array)
    assert packed["dtype"] == "<f8"
    assert unpack_array(packed, "<f8").tolist() == [1.5, -2.0]


class TestRefusals:
    def packed(self):
        return pack_array(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_wrong_dtype(self):
        with pytest.raises(ValueError, match="dtype"):
            unpack_array(self.packed(), "<i8")

    @pytest.mark.parametrize("shape", [None, "2x2", [2, -2], [2.0, 2], [True]])
    def test_bad_shape(self, shape):
        with pytest.raises(ValueError, match="shape"):
            unpack_array({**self.packed(), "shape": shape}, "<f8")

    def test_byte_count_must_match_shape(self):
        with pytest.raises(ValueError, match="needs 24"):
            unpack_array({**self.packed(), "shape": [3]}, "<f8")

    def test_data_must_be_base64_text(self):
        with pytest.raises(ValueError):
            unpack_array({**self.packed(), "data": "not base64!"}, "<f8")
        with pytest.raises(ValueError, match="base64 string"):
            unpack_array({**self.packed(), "data": [1.0, 2.0]}, "<f8")

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="object"):
            unpack_array([[1.0, 2.0], [3.0, 4.0]], "<f8")

    def test_boolean_bytes_are_zero_or_one(self):
        packed = {"dtype": "|b1", "shape": [2],
                  "data": base64.b64encode(b"\x01\x02").decode("ascii")}
        with pytest.raises(ValueError, match="0/1"):
            unpack_array(packed, "|b1")
