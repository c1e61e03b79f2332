"""The DarNet ensemble: CNN + IMU model + Bayesian-network combiner.

Implements the three architectures of Table 2:

* ``CNN+RNN`` — the full DarNet (frame CNN, bidirectional-LSTM IMU model,
  BN combiner).
* ``CNN+SVM`` — the ensemble ablation with a kernel SVM on window
  statistics as the IMU model.
* ``CNN``     — frames only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bayesian import BayesianNetworkCombiner
from repro.core.cnn import CnnConfig, DriverFrameCNN
from repro.core.rnn import ImuSequenceRNN, RnnConfig
from repro.datasets.classes import (
    NUM_BEHAVIOR_CLASSES,
    NUM_EXTENDED_IMU_CLASSES,
    NUM_IMU_CLASSES,
)
from repro.datasets.dataset import DrivingDataset
from repro.exceptions import ConfigurationError, NotFittedError
from repro.ml.features import FeatureScaler, extract_window_features
from repro.ml.svm import MultiClassSVM
from repro.nn.metrics import accuracy, confusion_matrix


class SvmImuClassifier:
    """SVM pipeline over IMU windows: features -> scaling -> OvR kernel SVM.

    Presents the same ``fit`` / ``predict_proba`` surface as
    :class:`~repro.core.rnn.ImuSequenceRNN`, so the ensemble can swap the
    IMU model freely.
    """

    def __init__(self, *, c: float = 2.0, kernel: str = "rbf",
                 gamma: float = 0.05, temperature: float = 0.3,
                 rng: np.random.Generator | None = None) -> None:
        self.scaler = FeatureScaler()
        self.svm = MultiClassSVM(c, kernel, gamma=gamma,
                                 temperature=temperature, rng=rng)
        self._num_classes: int | None = None

    def fit(self, windows: np.ndarray, labels: np.ndarray, **_: object
            ) -> None:
        """Train on (n, steps, 12) windows with IMU-class labels."""
        features = self.scaler.fit_transform(extract_window_features(windows))
        labels = np.asarray(labels, dtype=np.int64)
        self._num_classes = int(labels.max()) + 1
        self.svm.fit(features, labels)

    def _features(self, windows: np.ndarray) -> np.ndarray:
        return self.scaler.transform(extract_window_features(windows))

    def predict_proba(self, windows: np.ndarray) -> np.ndarray:
        """IMU-class probabilities; columns cover the full label range."""
        if self._num_classes is None:
            raise NotFittedError("SvmImuClassifier used before fit()")
        raw = self.svm.predict_proba(self._features(windows))
        # Map the SVM's observed-class columns onto the full label range.
        out = np.zeros((raw.shape[0], self._num_classes))
        for column, class_value in enumerate(self.svm.classes_):
            out[:, int(class_value)] = raw[:, column]
        totals = out.sum(axis=1, keepdims=True)
        return out / np.maximum(totals, 1e-12)

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Hard IMU-class predictions."""
        return self.svm.predict(self._features(windows)).astype(np.int64)

    def evaluate(self, windows: np.ndarray, labels: np.ndarray) -> float:
        """Top-1 accuracy."""
        return accuracy(np.asarray(labels), self.predict(windows))


#: The three evaluation architectures of Table 2.
ARCHITECTURES = ("cnn+rnn", "cnn+svm", "cnn")


@dataclass
class EnsembleResult:
    """Evaluation output of one architecture run."""

    architecture: str
    top1: float
    confusion: np.ndarray
    probabilities: np.ndarray
    predictions: np.ndarray
    imu_top1: float | None = None
    extras: dict = field(default_factory=dict)


@dataclass
class DegradedPrediction:
    """A verdict batch annotated with its degradation status.

    ``degraded`` is true when a modality the architecture normally uses
    was unavailable and the posterior fell back to BN marginalization;
    ``missing`` names the absent streams, and ``confidence`` is the
    per-sample max posterior (systematically lower under degradation).
    """

    probabilities: np.ndarray
    predictions: np.ndarray
    confidence: np.ndarray
    degraded: bool
    missing: tuple[str, ...] = ()


class DarNetEnsemble:
    """End-to-end classifier over paired (frame, IMU-window) samples.

    Args:
        architecture: one of ``"cnn+rnn"``, ``"cnn+svm"``, ``"cnn"``.
        cnn: a (possibly pre-trained) frame classifier to reuse; built
            fresh from ``cnn_config`` when omitted.
        cnn_config / rnn_config: hyper-parameters for freshly built models.
        rng: randomness source.
    """

    def __init__(self, architecture: str = "cnn+rnn", *,
                 cnn: DriverFrameCNN | None = None,
                 cnn_config: CnnConfig | None = None,
                 rnn_config: RnnConfig | None = None,
                 combiner: BayesianNetworkCombiner | None = None,
                 rng: np.random.Generator | None = None) -> None:
        if architecture not in ARCHITECTURES:
            raise ConfigurationError(
                f"unknown architecture {architecture!r}; "
                f"choose from {ARCHITECTURES}"
            )
        self.architecture = architecture
        self.rng = rng or np.random.default_rng()
        self.cnn = cnn or DriverFrameCNN(cnn_config, rng=self.rng)
        self.imu_model = None
        if architecture == "cnn+rnn":
            self.imu_model = ImuSequenceRNN(rnn_config, rng=self.rng)
        elif architecture == "cnn+svm":
            self.imu_model = SvmImuClassifier(rng=self.rng)
        # Combiner dimensions follow the member heads, so an extended
        # 8-class CNN + 4-class RNN composes without touching the BN code;
        # default configs reproduce the paper's 6x3 network exactly.
        num_classes = self.cnn.config.num_classes
        if isinstance(self.imu_model, ImuSequenceRNN):
            num_imu = self.imu_model.config.num_classes
        else:
            num_imu = (NUM_EXTENDED_IMU_CLASSES
                       if num_classes > NUM_BEHAVIOR_CLASSES
                       else NUM_IMU_CLASSES)
        self.combiner = combiner or BayesianNetworkCombiner(
            num_classes, num_imu)
        self._fitted = False

    # -- training --------------------------------------------------------
    def fit(self, train: DrivingDataset, *, pretrain_cnn: bool = False,
            cnn_epochs: int | None = None, imu_epochs: int | None = None,
            train_cnn: bool = True, verbose: bool = False) -> None:
        """Train the member models, then calibrate the combiner.

        CPTs are computed from the member models' verdicts on the training
        set ("the number of true-positive observations from the training
        data presented to the system", §4.2).

        Args:
            train: the paired training partition.
            pretrain_cnn: run generic-shapes pretraining before fine-tune.
            cnn_epochs / imu_epochs: override configured epoch counts.
            train_cnn: skip CNN training when reusing an already-trained
                frame model across architectures.
            verbose: per-epoch logging.
        """
        if train_cnn:
            if pretrain_cnn:
                self.cnn.pretrain(verbose=verbose)
            self.cnn.fit(train.images, train.labels, epochs=cnn_epochs,
                         verbose=verbose)
        if self.imu_model is not None:
            self.imu_model.fit(train.imu, train.imu_labels,
                               epochs=imu_epochs, verbose=verbose)
            cnn_verdicts = self.cnn.predict(train.images)
            imu_verdicts = self.imu_model.predict(train.imu)
            self.combiner.fit(cnn_verdicts, imu_verdicts, train.labels)
        self._fitted = True

    # -- input validation ------------------------------------------------
    def _validate_images(self, images: np.ndarray) -> None:
        cfg = self.cnn.config
        images = np.asarray(images)
        if images.ndim != 4:
            raise ConfigurationError(
                f"images must be a 4-d NCHW batch, got {images.ndim}-d "
                f"array of shape {images.shape}")
        n, channels, height, width = images.shape
        if (channels, height, width) != (cfg.in_channels, cfg.image_size,
                                         cfg.image_size):
            raise ConfigurationError(
                f"images must be (n, {cfg.in_channels}, {cfg.image_size}, "
                f"{cfg.image_size}) for this CNN, got {images.shape}")

    def _validate_windows(self, windows: np.ndarray) -> None:
        windows = np.asarray(windows)
        if windows.ndim != 3:
            raise ConfigurationError(
                f"IMU windows must be a 3-d (n, steps, features) batch, "
                f"got {windows.ndim}-d array of shape {windows.shape}")
        if isinstance(self.imu_model, ImuSequenceRNN):
            rnn_cfg = self.imu_model.config
            if windows.shape[1:] != (rnn_cfg.window_steps,
                                     rnn_cfg.input_features):
                raise ConfigurationError(
                    f"IMU windows must be (n, {rnn_cfg.window_steps}, "
                    f"{rnn_cfg.input_features}) for this RNN, got "
                    f"{windows.shape}")
        elif windows.shape[2] != 12:
            raise ConfigurationError(
                f"IMU windows must carry 12 features, got {windows.shape}")

    # -- inference -------------------------------------------------------
    def predict_proba(self, dataset: DrivingDataset) -> np.ndarray:
        """Combined behaviour-class probabilities per sample."""
        if not self._fitted:
            raise NotFittedError("ensemble used before fit()")
        self._validate_images(dataset.images)
        if self.imu_model is not None:
            self._validate_windows(dataset.imu)
        cnn_probs = self.cnn.predict_proba(dataset.images)
        if self.imu_model is None:
            return cnn_probs
        imu_probs = self.imu_model.predict_proba(dataset.imu)
        return self.combiner.predict_proba(cnn_probs, imu_probs)

    def predict(self, dataset: DrivingDataset) -> np.ndarray:
        """Hard behaviour predictions."""
        return self.predict_proba(dataset).argmax(axis=1)

    def predict_degraded(self, *, images: np.ndarray | None = None,
                         imu: np.ndarray | None = None
                         ) -> DegradedPrediction:
        """Classify with whatever streams survived, flagging degradation.

        This is the verdict path the controller uses when health
        supervision reports a dead stream mid-drive: with ``imu`` missing
        the BN marginalizes over the IMU parent's prior (CNN-only
        posterior); with ``images`` missing it marginalizes over the CNN
        parent (IMU-only posterior).  Verdicts are always emitted — a
        distracted-driving monitor that goes quiet when a sensor dies is
        worse than one that answers with honest, flagged uncertainty.

        Args:
            images: NCHW frame batch, or ``None`` if the stream is down.
            imu: (n, steps, 12) window batch, or ``None`` if down.
        """
        if not self._fitted:
            raise NotFittedError("ensemble used before fit()")
        if images is None and imu is None:
            raise ConfigurationError(
                "cannot classify: both streams are missing")
        if images is None and self.imu_model is None:
            raise ConfigurationError(
                f"architecture {self.architecture!r} has no IMU model to "
                "fall back on without frames")
        if images is not None:
            self._validate_images(images)
        if imu is not None and self.imu_model is not None:
            self._validate_windows(imu)
        missing: tuple[str, ...] = ()
        if images is not None and (imu is not None or self.imu_model is None):
            # Full-fidelity path: everything the architecture uses is here.
            cnn_probs = self.cnn.predict_proba(images)
            if self.imu_model is None:
                probs = cnn_probs
            else:
                probs = self.combiner.predict_proba(
                    cnn_probs, self.imu_model.predict_proba(imu))
        elif imu is None:
            missing = ("imu",)
            probs = self.combiner.predict_proba_cnn_only(
                self.cnn.predict_proba(images))
        else:
            missing = ("frames",)
            probs = self.combiner.predict_proba_imu_only(
                self.imu_model.predict_proba(imu))
        return DegradedPrediction(
            probabilities=probs,
            predictions=probs.argmax(axis=1),
            confidence=probs.max(axis=1),
            degraded=bool(missing),
            missing=missing,
        )

    def evaluate(self, dataset: DrivingDataset) -> EnsembleResult:
        """Full evaluation: Top-1, confusion matrix, raw probabilities."""
        probabilities = self.predict_proba(dataset)
        predictions = probabilities.argmax(axis=1)
        imu_top1 = None
        if self.imu_model is not None:
            imu_top1 = self.imu_model.evaluate(dataset.imu,
                                               dataset.imu_labels)
        return EnsembleResult(
            architecture=self.architecture,
            top1=accuracy(dataset.labels, predictions),
            confusion=confusion_matrix(dataset.labels, predictions,
                                       self.cnn.config.num_classes),
            probabilities=probabilities,
            predictions=predictions,
            imu_top1=imu_top1,
        )
