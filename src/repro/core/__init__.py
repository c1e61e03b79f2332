"""DarNet's primary contribution: the multimodal analytics engine.

CNN frame classifier, bidirectional-LSTM IMU classifier, Bayesian-network
ensemble combiner, the privacy-preserving dCNN distillation path, and the
end-to-end system facade.
"""

from repro.core.inception import (
    build_micro_inception,
    conv_bn_relu,
    inception_a,
    inception_b,
    replace_classifier,
)
from repro.core.cnn import CnnConfig, DriverFrameCNN
from repro.core.rnn import ImuSequenceRNN, RnnConfig, build_imu_rnn
from repro.core.bayesian import (
    AveragingCombiner,
    BayesianNetworkCombiner,
    MaxConfidenceCombiner,
    ProductCombiner,
    expand_imu_probs,
)
from repro.core.ensemble import (
    ARCHITECTURES,
    DarNetEnsemble,
    DegradedPrediction,
    EnsembleResult,
    SvmImuClassifier,
)
from repro.core.privacy import (
    DistortionModule,
    PrivacyLevel,
    distort_restore,
    nearest_neighbor_resize,
    restore_size,
)
from repro.core.distillation import (
    DenoisingCNN,
    DistillationConfig,
    train_privacy_suite,
)
from repro.core.adversary import (
    AdversaryResult,
    DriverIdentificationAdversary,
    run_privacy_adversary_study,
)
from repro.core.alerts import (
    Alert,
    AlertPolicy,
    DistractionAlerter,
    DriverReport,
    FleetMonitor,
)
from repro.core.model_store import (
    artifact_digests,
    file_digest,
    load_ensemble,
    save_ensemble,
    verify_artifacts,
)
from repro.core.darnet import (
    DarNetSystem,
    dataset_from_drives,
    DriveScript,
    TimestepClassification,
    run_collection_drive,
)

__all__ = [
    "build_micro_inception", "replace_classifier", "conv_bn_relu",
    "inception_a", "inception_b", "DriverFrameCNN", "CnnConfig",
    "ImuSequenceRNN", "RnnConfig", "build_imu_rnn",
    "BayesianNetworkCombiner", "AveragingCombiner", "ProductCombiner",
    "MaxConfidenceCombiner", "expand_imu_probs", "DarNetEnsemble",
    "DegradedPrediction", "EnsembleResult", "SvmImuClassifier",
    "ARCHITECTURES", "PrivacyLevel",
    "DistortionModule", "nearest_neighbor_resize", "restore_size",
    "distort_restore", "DenoisingCNN", "DistillationConfig",
    "train_privacy_suite",
    "DarNetSystem", "DriveScript", "TimestepClassification",
    "run_collection_drive", "dataset_from_drives", "AdversaryResult",
    "DriverIdentificationAdversary", "run_privacy_adversary_study",
    "Alert", "AlertPolicy", "DistractionAlerter", "DriverReport",
    "FleetMonitor", "save_ensemble", "load_ensemble",
    "artifact_digests", "file_digest", "verify_artifacts",
]
