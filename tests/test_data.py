"""Profiles, mixtures, samplers, splits, and the saved corpus."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcreg import data, tensorio, trainer
from lcreg.data import (
    ClassSplit,
    LongTailDataset,
    batch_stream,
    build_profile,
    load_dataset,
    make_mixture_spec,
    realized_imbalance,
    save_dataset,
    split_classes,
    synthesize_mixture,
)


def test_profile_if_one_is_balanced():
    counts = build_profile(10, 100, 1.0)
    assert np.all(counts == 100)


def test_profile_known_tail():
    # C=10, n_max=5000, IF=100: tail class count is 5000 * 100^-1 = 50
    counts = build_profile(10, 5000, 100.0)
    assert counts[0] == 5000
    assert counts[-1] == 50
    assert realized_imbalance(counts) == pytest.approx(100.0)


def test_profile_step():
    counts = build_profile(10, 100, 10.0, kind="step")
    assert list(counts[:5]) == [100] * 5
    assert list(counts[5:]) == [10] * 5


def test_profile_rounding_half_up_and_clamp():
    assert data.round_half_up(2.5) == 3
    assert data.round_half_up(2.49) == 2
    # extreme imbalance clamps the tail at 1
    counts = build_profile(5, 100, 100.0)
    assert counts.min() >= 1


def test_profile_rejects_bad_args():
    with pytest.raises(ValueError):
        build_profile(10, 100, 0.5)
    with pytest.raises(ValueError):
        build_profile(10, 5, 10.0)  # n_max < IF
    with pytest.raises(ValueError):
        build_profile(10, 100, 10.0, kind="linear")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 30),
    st.integers(1, 200),
    st.floats(1.0, 500.0),
)
def test_profile_monotone_and_bounded(c, scale, imb):
    n_max = int(np.ceil(imb)) * scale
    counts = build_profile(c, n_max, imb)
    assert counts[0] == n_max
    assert np.all(np.diff(counts) <= 0)
    assert counts.min() >= 1
    assert len(counts) == c


def test_mixture_means_reproducible_and_distinct():
    a = make_mixture_spec(10, 16, seed=3)
    b = make_mixture_spec(10, 16, seed=3)
    assert np.array_equal(a.means, b.means)
    c = make_mixture_spec(10, 16, seed=4)
    assert not np.array_equal(a.means, c.means)


def test_mixture_rejects_duplicate_means():
    means = np.zeros((3, 4))
    with pytest.raises(ValueError):
        data.MixtureSpec(3, 4, means, 1.0, 0)


def test_mixture_compares_means_exactly_and_refuses_non_finite():
    # rows 1e-200 apart are distinct, though their squared gap underflows;
    # rows 1e300 apart are distinct, though it overflows; neither warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data.MixtureSpec(2, 2, np.array([[1e-200, 0.0], [0.0, 0.0]]), 1.0, 0)
        data.MixtureSpec(2, 2, np.array([[1e300, 0.0], [-1e300, 0.0]]), 1.0, 0)
        with pytest.raises(ValueError, match="pairwise distinct"):
            data.MixtureSpec(3, 2, np.array([[1e300, 1.0], [0.0, 0.0], [1e300, 1.0]]), 1.0, 0)
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="must be finite"):
                data.MixtureSpec(2, 2, np.array([[bad, 0.0], [0.0, 0.0]]), 1.0, 0)
        with pytest.raises(ValueError, match="must be finite"):
            make_mixture_spec(10, 8, seed=0, mean_scale=1.7e308)


def test_synthesize_mixture_grouped_and_counted():
    spec = make_mixture_spec(4, 8, seed=0)
    counts = build_profile(4, 50, 10.0)
    ds = synthesize_mixture(spec, counts)
    assert len(ds.labels) == counts.sum()
    assert np.array_equal(np.bincount(ds.labels), counts)
    # labels grouped ascending
    assert np.all(np.diff(ds.labels) >= 0)


def test_synthesize_mixture_empirical_mean_close():
    spec = make_mixture_spec(3, 6, seed=1, mean_scale=2.0, stdev=1.0)
    ds = synthesize_mixture(spec, [10000, 10, 10])
    emp = ds.samples[ds.labels == 0].mean(axis=0)
    assert np.max(np.abs(emp - spec.means[0])) < 0.05


def test_synthesize_mixture_deterministic():
    spec = make_mixture_spec(3, 6, seed=5)
    a = synthesize_mixture(spec, [20, 10, 5])
    b = synthesize_mixture(spec, [20, 10, 5])
    assert np.array_equal(a.samples, b.samples)


def test_split_classes_thresholds():
    split = split_classes([500, 101, 100, 20, 19, 1])
    assert split.many == {0, 1}
    assert split.medium == {2, 3}
    assert split.few == {4, 5}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 1000), min_size=1, max_size=40))
def test_split_is_a_partition(counts):
    split = split_classes(counts)
    everything = split.many | split.medium | split.few
    assert everything == set(range(len(counts)))
    assert not (split.many & split.medium)
    assert not (split.many & split.few)
    assert not (split.medium & split.few)


def _tiny_dataset():
    spec = make_mixture_spec(3, 4, seed=9)
    return synthesize_mixture(spec, [30, 20, 10])


def test_instance_balanced_stream_deterministic_and_uniform():
    ds = _tiny_dataset()
    s1 = batch_stream(ds, "instance_balanced", 16, seed=3)
    s2 = batch_stream(ds, "instance_balanced", 16, seed=3)
    first1 = [next(s1) for _ in range(63)]  # ~1000 indices
    first2 = [next(s2) for _ in range(63)]
    assert all(np.array_equal(a, b) for a, b in zip(first1, first2))
    idx = np.concatenate(first1)
    assert idx.min() >= 0 and idx.max() < len(ds.labels)


def test_class_balanced_stream_frequencies():
    ds = _tiny_dataset()
    stream = batch_stream(ds, "class_balanced", 100, seed=0)
    draws = np.concatenate([next(stream) for _ in range(1000)])  # 100k draws
    freq = np.bincount(ds.labels[draws], minlength=3) / len(draws)
    assert np.all(np.abs(freq - 1.0 / 3.0) < 0.02)


def test_instance_balanced_stream_frequencies():
    ds = _tiny_dataset()
    stream = batch_stream(ds, "instance_balanced", 100, seed=0)
    draws = np.concatenate([next(stream) for _ in range(1000)])
    freq = np.bincount(ds.labels[draws], minlength=3) / len(draws)
    expect = ds.counts / ds.counts.sum()
    assert np.all(np.abs(freq - expect) < 0.02)


def test_corpus_roundtrip(tmp_path):
    ds = _tiny_dataset()
    assert save_dataset(ds, tmp_path / "d") == tmp_path / "d"
    assert [p.name for p in (tmp_path / "d").iterdir()] == ["corpus.lct"]
    back = load_dataset(tmp_path / "d")
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.counts, ds.counts)
    assert back.seed == ds.seed
    # splits are float32 in memory as on disk, so the corpus loses nothing
    assert np.array_equal(back.samples, ds.samples)
    assert back.samples.dtype == np.float32
    tensors, meta = tensorio.load_tensors(tmp_path / "d" / "corpus.lct")
    assert tensors["samples"].dtype == np.float32 and tensors["labels"].dtype == np.uint32
    assert meta == {"corpus_version": 1, "num_classes": 3, "seed": ds.seed}


def test_corpus_rejects_corrupt_payload(tmp_path):
    ds = _tiny_dataset()
    path = save_dataset(ds, tmp_path / "d") / "corpus.lct"
    blob = path.read_bytes()
    tensors, meta = tensorio.load_tensors(path)
    labels, samples = tensors["labels"], tensors["samples"]
    bad_label = labels.copy()
    bad_label[-1] = 3
    dtypes = "want float32 samples"
    damaged = [  # (what load_dataset must say, tensors, meta)
        (dtypes, dict(tensors, labels=labels[:1]), meta),
        ("label 3 is out of range for 3 classes", dict(tensors, labels=bad_label), meta),
        (dtypes, dict(tensors, samples=samples.astype(np.float64)), meta),
        (dtypes, dict(tensors, labels=labels.astype(np.int64)), meta),
        (dtypes, dict(tensors, samples=samples[0, 0]), meta),
        ("not a version 1 corpus", {"samples": samples}, meta),
        ("not a version 1 corpus", tensors,
         {k: v for k, v in meta.items() if k != "num_classes"}),
        ("not a version 1 corpus", tensors, dict(meta, corpus_version=2)),
        ("not a version 1 corpus", dict(tensors, extra=samples), meta),
    ]
    for message, t, m in damaged:
        tensorio.save_tensors(path, t, m)
        with pytest.raises(ValueError, match=message):
            load_dataset(tmp_path / "d")
    path.write_bytes(blob[:-1])
    with pytest.raises(ValueError, match="truncated"):
        load_dataset(tmp_path / "d")


def test_cache_dir_respects_env(tmp_path, monkeypatch):
    monkeypatch.setenv(data.CACHE_ENV_VAR, str(tmp_path / "cache"))
    d1 = data.dataset_cache_dir({"seed": 1})
    d2 = data.dataset_cache_dir({"seed": 1})
    d3 = data.dataset_cache_dir({"seed": 2})
    assert d1 == d2
    assert d1 != d3
    assert d1.parent == tmp_path / "cache"
    assert d1.name.startswith("dataset-")


def test_dataset_validation():
    with pytest.raises(ValueError):
        LongTailDataset(np.zeros((3, 2)), np.array([0, 1]), np.array([2, 1]), 0)
    with pytest.raises(ValueError):
        LongTailDataset(np.zeros((3, 2)), np.array([0, 1, 5]), np.array([2, 1]), 0)


# -- float32 splits ---------------------------------------------------------


def _reference_synthesis(spec, counts, seed):
    """The float64 expression synthesis must round, bit for bit."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 23]))
    xs, ys = [], []
    for c, n in enumerate(counts):
        noise = rng.standard_normal((int(n), spec.input_dim))
        xs.append(spec.means[c] + spec.stdev * noise)
        ys.append(np.full(int(n), c, dtype=np.int64))
    return np.concatenate(xs).astype(np.float32), np.concatenate(ys)


@pytest.mark.parametrize("spec, counts", [
    (make_mixture_spec(10, 8, seed=0), build_profile(10, 500, 100.0)),  # default task
    (make_mixture_spec(10, 121, seed=77, mean_scale=2.5, stdev=0.7),
     build_profile(10, 200, 50.0)),
    (make_mixture_spec(3, 4, seed=2, mean_scale=3.0, stdev=1.9), [7, 1, 2]),
], ids=["default", "input_dim_121", "class_of_one"])
@pytest.mark.parametrize("seed", [None, 1234567])
def test_synthesis_rounds_the_reference_expression(spec, counts, seed):
    ds = synthesize_mixture(spec, counts, seed=seed)
    samples, labels = _reference_synthesis(spec, counts, spec.seed if seed is None else seed)
    assert ds.samples.dtype == np.float32 and ds.samples.flags.c_contiguous
    assert ds.samples.shape == samples.shape and ds.samples.tobytes() == samples.tobytes()
    assert ds.labels.dtype == np.int64 and np.array_equal(ds.labels, labels)


def test_splits_are_float32_everywhere(tmp_path):
    task = trainer.TaskSpec(num_classes=4, input_dim=3, n_max=40, imbalance=10.0,
                            test_per_class=5)
    train, test = trainer.make_task_data(task, seed=0)
    loaded = load_dataset(save_dataset(test, tmp_path / "test"))
    for split in (_tiny_dataset(), train, test, loaded):
        assert split.samples.dtype == np.float32
    assert loaded.samples.tobytes() == test.samples.tobytes()


def test_float64_input_is_rounded_like_astype():
    rng = np.random.default_rng(3)
    f32 = np.finfo(np.float32)
    x = np.concatenate([rng.standard_normal(90) * 10.0 ** rng.integers(-40, 38, 90),
                        [float(f32.max), -float(f32.max), float(f32.tiny) / 3, 1e-50,
                         1 + 2.0 ** -24, 1 + 3 * 2.0 ** -24, -0.0]]).reshape(-1, 1)
    ds = LongTailDataset(x, np.zeros(len(x), np.int64), [len(x)], 0)
    assert ds.samples.dtype == np.float32
    assert ds.samples.tobytes() == x.astype(np.float32).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39, -4e38])
def test_non_finite_sample_is_refused_without_warning(bad):
    x = np.zeros((5, 3))
    x[3, 1] = bad
    with np.errstate(over="ignore"):
        x32 = x.astype(np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for samples in (x, x32):
            with pytest.raises(data.NonFiniteSampleError, match="not a finite float32"):
                LongTailDataset(samples, np.zeros(5, np.int64), [5], 0)


@pytest.mark.parametrize("kw", [dict(mean_scale=1e39), dict(stdev=1e39)])
def test_synthesis_past_float32_is_refused_without_warning(kw):
    spec = make_mixture_spec(3, 4, seed=0, **kw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(data.NonFiniteSampleError, match="not a finite float32"):
            synthesize_mixture(spec, [5, 3, 2])


def test_non_finite_corpus_sample_is_refused(tmp_path):
    path = save_dataset(_tiny_dataset(), tmp_path / "d") / "corpus.lct"
    tensors, meta = tensorio.load_tensors(path)
    tensors["samples"][7, 2] = np.nan
    tensorio.save_tensors(path, tensors, meta)
    with pytest.raises(data.NonFiniteSampleError, match="not a finite float32"):
        load_dataset(tmp_path / "d")


def test_synthesis_peak_is_near_its_output():
    # a 40,000 x 8 split: the float32 array and the labels it returns, plus
    # one float64 class block in flight
    spec = make_mixture_spec(10, 8, seed=0)
    tracemalloc.start()
    try:
        ds = synthesize_mixture(spec, np.full(10, 4000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (ds.samples.nbytes + ds.labels.nbytes)
