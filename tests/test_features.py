import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ecgemotion.config import PipelineConfig
from ecgemotion.evaluation import FeatureCache
from ecgemotion.features import (
    balanced_counts,
    dct,
    dct_matrix,
    load_features,
    sample_balanced,
    save_features,
)
from ecgemotion.synthgen import EmotionProfile, generate_clean
from ecgemotion.types import ConfigError, Emotion, FeatureVector, ParameterError, SignalRecord

from oracles import naive_dct


def test_dct_constant_signal():
    x = np.full(16, 2.5)
    y = dct(x)
    assert y[0] == pytest.approx(2.5 * 4.0, abs=1e-12)
    assert np.abs(y[1:]).max() <= 1e-12


def test_dct_1234():
    assert dct([1, 2, 3, 4])[0] == pytest.approx(5.0, abs=1e-12)


def test_dct_matches_naive_small():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5, 8, 13, 16):
        for _ in range(10):
            x = rng.normal(size=n)
            assert np.allclose(dct(x), naive_dct(x), rtol=1e-9, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(1, 48),
        elements=st.floats(-100, 100, allow_nan=False),
    )
)
def test_parseval(x):
    y = dct(x)
    assert np.sum(y**2) == pytest.approx(np.sum(x**2), rel=1e-9, abs=1e-9)


def test_dct_errors():
    with pytest.raises(ParameterError):
        dct([])
    with pytest.raises(ParameterError):
        dct(np.zeros((3, 3)))


def split_config(**overrides) -> PipelineConfig:
    """Split settings for the 128 Hz test corpora: 256-sample segments,
    subjects 1-4 for training and 5 for testing."""
    settings = dict(
        segment_len=256,
        train_subjects=(1, 2, 3, 4),
        test_subjects=(5,),
        train_size=40,
        test_size=20,
    )
    settings.update(overrides)
    return PipelineConfig(**settings)


def random_corpus(rng, length):
    """White-noise records for subjects 1-5, one per emotion."""
    return [
        SignalRecord(rng.normal(size=length), 128.0, emotion, subject)
        for subject in range(1, 6)
        for emotion in Emotion
    ]


def segment_of(records, fv, length):
    """The samples of the segment a feature vector's (label, subject, start) names."""
    subject, start = fv.source
    (record,) = [r for r in records if r.subject_id == subject and r.label is fv.label]
    assert start % length == 0 and start + length <= len(record)
    return record.samples[start : start + length]


def test_extract_constant():
    records = [
        SignalRecord(np.full(400, 3.0), 128.0, emotion, subject)
        for subject in range(1, 6)
        for emotion in Emotion
    ]
    cfg = split_config(segment_len=100, train_size=8, test_size=4)
    dataset = FeatureCache(records, cfg).dataset(5, 0)
    x, _ = dataset.train_arrays()
    assert np.allclose(x[:, 0], 3.0 * 10.0, rtol=0, atol=1e-12)
    assert np.abs(x[:, 1:]).max() <= 1e-12


def test_extract_full_invertible():
    records = random_corpus(np.random.default_rng(1), 512)
    cfg = split_config(segment_len=128)
    dataset = FeatureCache(records, cfg).dataset(128, 4)
    for fv in dataset.train + dataset.test:
        assert np.allclose(dct_matrix(128).T @ fv.values, segment_of(records, fv, 128), rtol=1e-9, atol=1e-12)


def test_extract_prefix_of_full_transform():
    records = random_corpus(np.random.default_rng(2), 768)
    dataset = FeatureCache(records, split_config()).dataset(75, 9)
    for fv in dataset.train[:4] + dataset.test[:4]:
        assert len(fv) == 75
        expected = naive_dct(segment_of(records, fv, 256))[:75]
        assert np.allclose(fv.values, expected, rtol=1e-9, atol=1e-12)


def test_extract_preserves_label_and_source():
    records = random_corpus(np.random.default_rng(3), 1024)
    dataset = FeatureCache(records, split_config()).dataset(10, 2)
    for side, subjects in ((dataset.train, {1, 2, 3, 4}), (dataset.test, {5})):
        assert all(isinstance(fv.label, Emotion) for fv in side)
        assert {fv.source[0] for fv in side} <= subjects
        for fv in side:
            assert np.allclose(fv.values, dct(segment_of(records, fv, 256))[:10], rtol=0, atol=1e-12)


def test_extract_errors():
    cache = FeatureCache(corpus(), split_config())
    with pytest.raises(ParameterError):
        cache.dataset(0, 1)
    with pytest.raises(ParameterError):
        cache.dataset(257, 1)
    assert len(cache.dataset(256, 1).train[0]) == 256


def test_truncation_error_monotone():
    rng = np.random.default_rng(3)
    x = rng.normal(size=64)
    coeffs = dct(x)
    errors = []
    for n in range(1, 65):
        padded = np.zeros(64)
        padded[:n] = coeffs[:n]
        errors.append(float(np.sum((dct_matrix(64).T @ padded - x) ** 2)))
    assert all(errors[i + 1] <= errors[i] + 1e-12 for i in range(63))


def corpus(duration_s=24.0):
    records = []
    for subject in range(1, 6):
        for emotion in Emotion:
            records.append(
                generate_clean(
                    EmotionProfile(60 + 10 * int(emotion), 2),
                    duration_s,
                    128,
                    seed=subject * 10 + int(emotion),
                    label=emotion,
                    subject_id=subject,
                )
            )
    return records


def test_assemble_paper_sizes_balanced():
    cache = FeatureCache(corpus(), split_config(train_size=4000, test_size=1200))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # pools are short, replacement expected
        dataset = cache.dataset(75, 11)
    assert len(dataset.train) == 4000
    assert len(dataset.test) == 1200
    for group, size in ((dataset.train, 1000), (dataset.test, 300)):
        counts = {e: 0 for e in Emotion}
        for fv in group:
            counts[fv.label] += 1
        assert all(c == size for c in counts.values())
    train_subjects = {fv.source[0] for fv in dataset.train}
    test_subjects = {fv.source[0] for fv in dataset.test}
    assert train_subjects <= {1, 2, 3, 4}
    assert test_subjects == {5}


def test_assemble_minimum_one_per_emotion():
    cache = FeatureCache(corpus(), split_config(train_size=4, test_size=4))
    dataset = cache.dataset(20, 0)
    assert sorted(fv.label for fv in dataset.train) == list(Emotion)


def test_assemble_deterministic():
    cfg = split_config(train_subjects=(1, 2))
    a = FeatureCache(corpus(), cfg).dataset(30, 5)
    b = FeatureCache(corpus(), cfg).dataset(30, 5)
    xa, ya = a.train_arrays()
    xb, yb = b.train_arrays()
    assert np.array_equal(xa, xb) and np.array_equal(ya, yb)
    xa, ya = a.test_arrays()
    xb, yb = b.test_arrays()
    assert np.array_equal(xa, xb) and np.array_equal(ya, yb)
    assert [fv.source for fv in a.train] == [fv.source for fv in b.train]
    assert {fv.source[0] for fv in a.train} <= {1, 2}  # subjects 3 and 4 sit out


def test_assemble_rejects_overlapping_subjects():
    # a split's subject groups come from its PipelineConfig, which refuses
    # overlapping groups however it is built
    with pytest.raises(ConfigError):
        split_config(train_subjects=(1, 2, 5))
    with pytest.raises(ConfigError):
        split_config().replace(test_subjects=(4, 5))


def test_balanced_counts():
    assert balanced_counts(4000) == [1000, 1000, 1000, 1000]
    assert balanced_counts(6) == [2, 2, 1, 1]
    assert balanced_counts(4) == [1, 1, 1, 1]


def test_features_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 7)) * 10.0 ** rng.integers(-6, 6, size=(4, 1))
    codes = np.array([int(e) for e in Emotion])
    path = tmp_path / "features.csv"
    save_features(x, codes, path)
    loaded_x, loaded_codes = load_features(path)
    assert np.array_equal(loaded_x, x)
    assert np.array_equal(loaded_codes, codes) and loaded_codes.dtype == np.int64
    header = path.read_text().splitlines()[0]
    assert header == "label,f1,f2,f3,f4,f5,f6,f7"


def test_splits_build_no_feature_vector(monkeypatch):
    built = []
    monkeypatch.setattr(FeatureVector, "__post_init__", lambda fv: built.append(fv))
    cache = FeatureCache(corpus(), split_config())
    for _, (x, codes), (x_test, codes_test) in cache.splits(30, 5, "run", 2):
        assert x.shape == (40, 30) and x_test.shape == (20, 30)
    assert built == []
    assert len(cache.dataset(30, 5).train) == 40  # the view builds its vectors when read
    assert len(built) == 40


def test_dataset_arrays_are_the_drawn_rows():
    cfg = split_config()
    cache = FeatureCache(corpus(), cfg)
    dataset = cache.dataset(30, 5)
    rng = np.random.default_rng(5)
    drawn = [sample_balanced(cache.pools[side], size, rng, side)
             for side, size in (("train", cfg.train_size), ("test", cfg.test_size))]
    sides = (
        (dataset.train_arrays(), dataset.sources_train, dataset.train),
        (dataset.test_arrays(), dataset.sources_test, dataset.test),
    )
    for rows, ((x, codes), sources, vectors) in zip(drawn, sides):
        assert x.dtype == np.float64 and x.flags.c_contiguous
        assert codes.dtype == sources.dtype == np.int64
        assert np.array_equal(x, cache.coeffs[rows, :30])
        assert np.array_equal(codes, cache.labels[rows])
        assert np.array_equal(sources, np.column_stack((cache.subjects[rows], cache.starts[rows])))
        assert np.array_equal(x, [fv.values for fv in vectors])
        assert codes.tolist() == [fv.label for fv in vectors]
        assert sources.tolist() == [list(fv.source) for fv in vectors]
