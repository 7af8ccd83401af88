"""The benchmark's span tracer (perfbench/spans.py) wraps package callables
by name and reads counters off their results; a rename or a change of
result shape in the package must fail here, not in a traced run."""

import importlib.util
import sys
from pathlib import Path

import pytest

from ecgemotion.evaluation import FeatureCache

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists(spans):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for _, owner, attr in spans.TARGETS
        if attr not in owner.__dict__
    ]
    assert not missing


def test_dataset_counter_reads_feature_cache_result(spans, mini_config, mini_corpus):
    # pools of 48 segments per emotion on the training side, 12 on the test
    # side: drawing 100 and 30 per emotion repeats rows on both sides
    cfg = mini_config.replace(train_size=400, test_size=120)
    dataset = FeatureCache(mini_corpus, cfg).dataset(cfg.feature_count, 3)
    info = spans.COUNTERS["evaluation.FeatureCache.dataset"](None, None, None, dataset)
    for side, size in (("train", cfg.train_size), ("test", cfg.test_size)):
        rows = {(int(fv.label),) + fv.source for fv in getattr(dataset, side)}
        assert len(rows) < size
        assert info[side] == [size, len(rows)]
