"""The tensor container behind every checkpoint and dataset split: bitwise
round trips for any shape and each stored dtype, loaded arrays that own their
memory, and a clean ValueError for a file with a bad header, a cut anywhere,
bytes past its end, or a repeated tensor name or meta key."""

import hashlib
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from lcreg import tensorio
from lcreg.augment import init_stats, update_stats
from lcreg.model import ModelConfig, image_encoder, init_model, load_model, save_model
from lcreg.trainer import TaskSpec, TrainConfig, model_config


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

    def test_file_cut_while_read_is_refused(self, tmp_path, container, monkeypatch):
        """A payload read short is an error, never uninitialized memory."""
        path = tmp_path / "cut.lct"
        path.write_bytes(container[:-8])
        real = tensorio.os.fstat
        monkeypatch.setattr(tensorio.os, "fstat",
                            lambda fd: SimpleNamespace(st_size=real(fd).st_size + 8))
        with pytest.raises(ValueError, match="changed while it was read"):
            tensorio.load_tensors(path)

    def test_short_file_is_bad_magic(self, tmp_path, container):
        path = tmp_path / "cut.lct"
        for size in range(4):
            path.write_bytes(container[:size])
            with pytest.raises(ValueError, match="bad magic"):
                tensorio.load_tensors(path)


def pack_float64(meta: list, tensors: list) -> bytes:
    """A container packed by hand from (key, value) and (name, array) lists
    in the given order, repeats included."""
    parts = [b"LCT1", struct.pack("<II", 1, len(meta))]
    for key, value in meta:
        parts += (struct.pack("<H", len(key)), key.encode(), struct.pack("<q", value))
    parts.append(struct.pack("<I", len(tensors)))
    for name, arr in tensors:
        arr = np.asarray(arr, dtype="<f8")
        parts += (struct.pack("<H", len(name)), name.encode(), bytes((arr.ndim,)),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes())
    return b"".join(parts)


class TestRepeatedNames:
    def test_hand_packing_matches_save_tensors(self, tmp_path):
        path = tmp_path / "t.lct"
        tensorio.save_tensors(path, {"x": np.arange(3.0), "y": np.ones((2, 2))}, {"k": 1})
        assert path.read_bytes() == pack_float64(
            [("k", 1)], [("x", np.arange(3.0)), ("y", np.ones((2, 2)))])

    def test_repeated_tensor_name_is_refused(self, tmp_path):
        path = tmp_path / "t.lct"
        path.write_bytes(pack_float64([], [("x", np.zeros(3)), ("x", np.zeros(5))]))
        with pytest.raises(ValueError, match="tensor 'x' repeated"):
            tensorio.load_tensors(path)

    def test_repeated_meta_key_is_refused(self, tmp_path):
        path = tmp_path / "t.lct"
        path.write_bytes(pack_float64([("k", 1), ("k", 7)], [("x", np.zeros(3))]))
        with pytest.raises(ValueError, match="meta key 'k' repeated"):
            tensorio.load_tensors(path)


class TestDtypes:
    """float32 and uint32 tensors keep their dtype; a float64 tensor's header
    byte is plain ndim, so checkpoints are byte-identical to the float64-only
    container."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint32])
    def test_each_dtype_roundtrips_bitwise(self, tmp_path, dtype):
        info = np.finfo(dtype) if dtype != np.uint32 else np.iinfo(dtype)
        tensors = {"s": np.array(3, dtype=dtype), "e": np.zeros((0, 3), dtype=dtype),
                   "v": np.zeros(0, dtype=dtype),
                   "m": np.array([[info.max, info.min, 0], [1, 2, 7]], dtype=dtype)}
        if dtype != np.uint32:
            tensors["n"] = np.array([np.nan, np.inf, -np.inf, info.smallest_subnormal, -0.0],
                                    dtype=dtype)
        got, _ = roundtrip(tmp_path / "t.lct", tensors)
        assert list(got) == sorted(tensors)
        for name, arr in tensors.items():
            assert got[name].dtype == dtype and got[name].shape == arr.shape
            assert got[name].tobytes() == arr.tobytes()
            assert got[name].flags.c_contiguous and got[name].flags.owndata
            assert got[name].flags.writeable

    def test_other_dtypes_are_stored_as_float64(self, tmp_path):
        tensors = {"i": np.arange(4), "h": np.ones(3, np.float16), "b": np.array([True])}
        got, _ = roundtrip(tmp_path / "t.lct", tensors)
        assert_bitwise(tensors, got)

    def test_ndim_limit(self, tmp_path):
        got, _ = roundtrip(tmp_path / "ok.lct", {"x": np.zeros((1,) * 63, np.float32)})
        assert got["x"].shape == (1,) * 63 and got["x"].dtype == np.float32
        with pytest.raises(ValueError, match="64 dims"):
            tensorio.save_tensors(tmp_path / "no.lct", {"x": np.zeros((1,) * 64)})
        assert not (tmp_path / "no.lct").exists()

    def test_dtype_code_3_is_refused(self, tmp_path):
        path = tmp_path / "t.lct"
        tensorio.save_tensors(path, {"x": np.ones(2)})
        blob = bytearray(path.read_bytes())
        # header 16 bytes, then u16 name length and the name "x"
        assert blob[19] == 1
        blob[19] = 3 << 6 | 1
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="unknown dtype code 3"):
            tensorio.load_tensors(path)

    def test_every_cut_of_a_mixed_container_is_truncated(self, tmp_path):
        path = tmp_path / "mixed.lct"
        tensorio.save_tensors(path, {"a": np.arange(3, dtype=np.uint32),
                                     "b": np.ones((2, 2), np.float32),
                                     "c": np.array([0.5, -1.0])}, {"k": 1})
        blob = path.read_bytes()
        # 12-byte header, meta "k" (11), tensor count (4), then per tensor the
        # name (3), the header byte and dims, and the payload [start, end)
        payloads = {"a": (35, 47), "b": (59, 75), "c": (83, 99)}
        assert len(blob) == 99
        for size in range(4, len(blob)):
            path.write_bytes(blob[:size])
            with pytest.raises(ValueError, match="truncated") as err:
                tensorio.load_tensors(path)
            needs = int(str(err.value).rsplit(" ", 1)[1].rstrip(")"))
            assert f"({size} bytes, needs at least" in str(err.value) and needs > size
            for start, end in payloads.values():
                if start <= size < end:
                    assert needs == end


def _stats_for(cfg, rng):
    c, d = cfg.num_classes, cfg.encoder.feature_dim
    return update_stats(init_stats(c, d), rng.standard_normal((4 * c, d)),
                        np.repeat(np.arange(c), 4))


@pytest.mark.parametrize("cfg, seed, want", [
    (model_config(TrainConfig(), TaskSpec()), 0,
     "da574c1cf554b0f1e432843c7671276cb75288d14c6e7d1db34b15c64ac29092"),
    (ModelConfig(image_encoder(1, 6, 6, (3,), 4), num_classes=3, num_latents=3), 1,
     "85cc58bfe786eeb03f24e43e73a67a45315c470cd47f400e3b6817fae051182a"),
], ids=["vector_full", "image"])
def test_checkpoint_bytes_are_pinned(tmp_path, cfg, seed, want):
    """save_model output of the float64-only container, byte for byte."""
    path = tmp_path / "m.lct"
    save_model(path, init_model(cfg, seed=seed), _stats_for(cfg, np.random.default_rng(seed)),
               iteration=7)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want


@pytest.mark.parametrize("name", ["dec.w", "stats.mean"])
def test_load_model_refuses_a_float32_tensor(tmp_path, name):
    cfg = ModelConfig(image_encoder(1, 6, 6, (3,), 4), num_classes=3, num_latents=3)
    path = tmp_path / "m.lct"
    save_model(path, init_model(cfg, seed=1), _stats_for(cfg, np.random.default_rng(1)),
               iteration=7)
    tensors, meta = tensorio.load_tensors(path)
    tensors[name] = tensors[name].astype(np.float32)
    tensorio.save_tensors(path, tensors, meta)
    with pytest.raises(ValueError, match=f"tensor {name} is float32, not float64"):
        load_model(path, cfg)
