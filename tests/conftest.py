import time

import numpy as np
import pytest

from ecgemotion.config import PipelineConfig

from oracles import make_blobs


@pytest.fixture(scope="session")
def blob_data():
    """The 4-blob set: 100 points/class train, 50/class test, sigma 0.1."""
    rng = np.random.default_rng(2024)
    return make_blobs(rng, 100, std=0.1, test_points=50)


@pytest.fixture(scope="session")
def mini_config():
    """A desk-scale pipeline configuration for fast end-to-end tests."""
    return PipelineConfig(
        record_duration_s=24.0,
        train_size=160,
        test_size=80,
        feature_count=40,
        runs=2,
        pso_swarm_size=4,
        pso_iterations=3,
        pso_subsample=80,
        svm_tune=False,
        forest_trees=15,
        knn_k=3,
        seed=99,
    )


@pytest.fixture(scope="session")
def mini_corpus(mini_config):
    from ecgemotion import evaluation

    records = evaluation.synth_corpus(mini_config)
    filtered, _ = evaluation.filter_corpus(records, mini_config)
    return filtered


@pytest.fixture(scope="session")
def reference_run():
    """The seed-12345 protocol of the bundled reference configuration, run
    once per session: ``(result, seconds)``, where ``seconds`` times the
    ``run_protocol`` call alone."""
    from ecgemotion import evaluation

    start = time.perf_counter()
    result = evaluation.run_protocol(PipelineConfig())
    return result, time.perf_counter() - start
