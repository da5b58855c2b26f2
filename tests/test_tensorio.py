"""The tensor container behind every checkpoint: bitwise round trips for any
shape, loaded arrays that own their memory, and a clean ValueError for a file
with a bad header, a cut anywhere, or bytes past its end."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from lcreg import tensorio


def roundtrip(path, tensors, meta=None):
    tensorio.save_tensors(path, tensors, meta)
    return tensorio.load_tensors(path)


def assert_bitwise(want: dict, got: dict):
    assert list(got) == sorted(want)
    for name, arr in want.items():
        arr = np.asarray(arr, dtype=np.float64)
        assert got[name].dtype == np.float64
        assert got[name].shape == arr.shape
        assert got[name].tobytes() == arr.tobytes()


@pytest.fixture
def container(tmp_path):
    """Bytes of a container with meta, a 0-d, a zero-size and a 2-d tensor."""
    path = tmp_path / "c.lct"
    tensors = {"scalar": np.array(-0.0), "empty": np.zeros((0, 3)),
               "w": np.arange(6.0).reshape(2, 3) / 7.0}
    tensorio.save_tensors(path, tensors, {"iteration": 12, "z": -(2 ** 63)})
    return path.read_bytes()


class TestRoundTrip:
    def test_zero_dim_and_zero_size_tensors(self, tmp_path):
        tensors = {"s": np.array(2.5), "e": np.zeros((0, 3)), "v": np.zeros(0),
                   "n": np.array([np.nan, np.inf, -np.inf, 5e-324, -0.0])}
        got, meta = roundtrip(tmp_path / "t.lct", tensors)
        assert_bitwise(tensors, got)
        assert meta == {}

    def test_empty_container(self, tmp_path):
        path = tmp_path / "t.lct"
        assert roundtrip(path, {}) == ({}, {})
        assert path.read_bytes() == tensorio.MAGIC + bytes([1, 0, 0, 0] + [0] * 8)

    def test_no_meta_equals_empty_meta(self, tmp_path):
        tensorio.save_tensors(tmp_path / "a.lct", {"x": np.ones(2)})
        tensorio.save_tensors(tmp_path / "b.lct", {"x": np.ones(2)}, {})
        assert (tmp_path / "a.lct").read_bytes() == (tmp_path / "b.lct").read_bytes()

    def test_non_contiguous_and_non_float_inputs(self, tmp_path):
        base = np.arange(12.0).reshape(3, 4)
        tensors = {"t": base.T, "step": base[:, ::2], "ints": np.arange(5)}
        got, _ = roundtrip(tmp_path / "t.lct", tensors)
        assert_bitwise(tensors, got)

    def test_loaded_arrays_own_writable_c_contiguous_memory(self, tmp_path):
        got, _ = roundtrip(tmp_path / "t.lct", {"a": np.ones((2, 3)), "s": np.array(1.0),
                                                "e": np.zeros((0, 2))})
        for arr in got.values():
            assert arr.flags.c_contiguous and arr.flags.writeable and arr.flags.owndata
            arr[...] = 3.0

    @settings(max_examples=60, deadline=None)
    @given(tensors=st.dictionaries(
               st.text(max_size=6),
               arrays(np.float64, array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
                      elements=st.floats(allow_nan=True, allow_infinity=True)),
               max_size=4),
           meta=st.dictionaries(st.text(max_size=6),
                                st.integers(-(2 ** 63), 2 ** 63 - 1), max_size=3))
    def test_random_shapes_are_bitwise(self, tmp_path_factory, tensors, meta):
        path = tmp_path_factory.mktemp("rt") / "t.lct"
        got, got_meta = roundtrip(path, tensors, meta)
        assert_bitwise(tensors, got)
        assert got_meta == meta


class TestMalformed:
    def test_bad_magic(self, tmp_path, container):
        path = tmp_path / "bad.lct"
        path.write_bytes(b"LCT2" + container[4:])
        with pytest.raises(ValueError, match="bad magic"):
            tensorio.load_tensors(path)

    def test_unsupported_version(self, tmp_path, container):
        path = tmp_path / "bad.lct"
        path.write_bytes(container[:4] + bytes([2, 0, 0, 0]) + container[8:])
        with pytest.raises(ValueError, match="unsupported version 2"):
            tensorio.load_tensors(path)

    def test_one_trailing_byte(self, tmp_path, container):
        path = tmp_path / "bad.lct"
        path.write_bytes(container + b"\0")
        with pytest.raises(ValueError, match="trailing bytes"):
            tensorio.load_tensors(path)

    def test_every_cut_is_truncated(self, tmp_path, container):
        path = tmp_path / "cut.lct"
        for size in range(4, len(container)):
            path.write_bytes(container[:size])
            with pytest.raises(ValueError, match="truncated") as err:
                tensorio.load_tensors(path)
            needs = int(str(err.value).rsplit(" ", 1)[1].rstrip(")"))
            assert f"({size} bytes, needs at least" in str(err.value) and needs > size

    def test_short_file_is_bad_magic(self, tmp_path, container):
        path = tmp_path / "cut.lct"
        for size in range(4):
            path.write_bytes(container[:size])
            with pytest.raises(ValueError, match="bad magic"):
                tensorio.load_tensors(path)
