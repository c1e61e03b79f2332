"""DarNet ensemble and the SVM IMU pipeline."""

import numpy as np
import pytest

from repro.core import (
    CnnConfig,
    DarNetEnsemble,
    RnnConfig,
    SvmImuClassifier,
)
from repro.exceptions import ConfigurationError, NotFittedError


FAST_CNN = CnnConfig(epochs=2, width=0.5)
FAST_RNN = RnnConfig(hidden_units=16, epochs=3)


@pytest.fixture(scope="module")
def split_dataset():
    from repro.datasets import generate_driving_dataset
    ds = generate_driving_dataset(90, num_drivers=2,
                                  rng=np.random.default_rng(777))
    return ds.train_eval_split(rng=np.random.default_rng(0))


def test_svm_imu_classifier_pipeline(split_dataset):
    train, evaluation = split_dataset
    svm = SvmImuClassifier(rng=np.random.default_rng(1))
    svm.fit(train.imu, train.imu_labels)
    probs = svm.predict_proba(evaluation.imu)
    assert probs.shape == (len(evaluation), 3)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert svm.evaluate(evaluation.imu, evaluation.imu_labels) > 0.5


def test_svm_imu_not_fitted(rng):
    with pytest.raises(NotFittedError):
        SvmImuClassifier(rng=rng).predict_proba(
            np.zeros((2, 20, 12), dtype=np.float32))


def test_ensemble_rejects_unknown_architecture(rng):
    with pytest.raises(ConfigurationError):
        DarNetEnsemble("cnn+tree", rng=rng)


def test_ensemble_not_fitted(rng, split_dataset):
    _, evaluation = split_dataset
    ensemble = DarNetEnsemble("cnn", cnn_config=FAST_CNN, rng=rng)
    with pytest.raises(NotFittedError):
        ensemble.predict(evaluation)


@pytest.fixture(scope="module")
def trained_ensembles(split_dataset):
    train, _ = split_dataset
    rng = np.random.default_rng(5)
    cnn_only = DarNetEnsemble("cnn", cnn_config=FAST_CNN, rng=rng)
    cnn_only.fit(train)
    with_rnn = DarNetEnsemble("cnn+rnn", cnn=cnn_only.cnn,
                              rnn_config=FAST_RNN, rng=rng)
    with_rnn.fit(train, train_cnn=False)
    with_svm = DarNetEnsemble("cnn+svm", cnn=cnn_only.cnn, rng=rng)
    with_svm.fit(train, train_cnn=False)
    return {"cnn": cnn_only, "cnn+rnn": with_rnn, "cnn+svm": with_svm}


def test_ensemble_evaluate_structure(trained_ensembles, split_dataset):
    _, evaluation = split_dataset
    for arch, ensemble in trained_ensembles.items():
        result = ensemble.evaluate(evaluation)
        assert result.architecture == arch
        assert 0.0 <= result.top1 <= 1.0
        assert result.confusion.shape == (6, 6)
        assert result.confusion.sum() == len(evaluation)
        assert result.probabilities.shape == (len(evaluation), 6)
        if arch == "cnn":
            assert result.imu_top1 is None
        else:
            assert result.imu_top1 is not None


def test_ensemble_probabilities_normalized(trained_ensembles, split_dataset):
    _, evaluation = split_dataset
    probs = trained_ensembles["cnn+rnn"].predict_proba(evaluation)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_cnn_shared_across_architectures(trained_ensembles):
    assert trained_ensembles["cnn+rnn"].cnn is trained_ensembles["cnn"].cnn

