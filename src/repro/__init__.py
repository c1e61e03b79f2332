"""DarNet reproduction: deep-learning distracted-driving detection middleware.

Reproduces Streiffer et al., "DarNet: A Deep Learning Solution for
Distracted Driving Detection" (Middleware Industry '17) as a laptop-scale
pure-Python system: the IoT data-collection framework, the CNN+RNN
analytics engine with Bayesian-network ensembling, and the
privacy-preserving downsampled-CNN distillation path.

Quickstart::

    import numpy as np
    from repro import DarNetEnsemble, generate_driving_dataset

    rng = np.random.default_rng(0)
    dataset = generate_driving_dataset(600, rng=rng)
    train, evaluation = dataset.train_eval_split(rng=rng)
    darnet = DarNetEnsemble("cnn+rnn", rng=rng)
    darnet.fit(train)
    print(darnet.evaluate(evaluation).top1)
"""

from repro.core import (
    BayesianNetworkCombiner,
    CnnConfig,
    DarNetEnsemble,
    DarNetSystem,
    DenoisingCNN,
    DistillationConfig,
    DistortionModule,
    DriveScript,
    DriverFrameCNN,
    ImuSequenceRNN,
    PrivacyLevel,
    RnnConfig,
    run_collection_drive,
    train_privacy_suite,
)
from repro.datasets import (
    DrivingBehavior,
    DrivingDataset,
    ImuClass,
    generate_alternative_dataset,
    generate_driving_dataset,
    to_imu_class,
)
from repro.serving import (
    AdmissionController,
    DriverSession,
    InferenceServer,
    MicroBatchScheduler,
    ReplayReport,
    ServingModelRegistry,
    ServingVerdict,
    replay_concurrent_drives,
)
from repro.streaming import (
    CentralizedController,
    Channel,
    CollectionAgent,
    CollectionSession,
    TimeSeriesDatabase,
    VirtualClock,
)

__version__ = "1.0.0"

__all__ = [
    "DarNetEnsemble", "DarNetSystem", "DriverFrameCNN", "ImuSequenceRNN",
    "BayesianNetworkCombiner", "CnnConfig", "RnnConfig",
    "PrivacyLevel", "DistortionModule", "DenoisingCNN", "DistillationConfig",
    "train_privacy_suite", "DriveScript", "run_collection_drive",
    "DrivingBehavior", "ImuClass", "to_imu_class", "DrivingDataset",
    "generate_driving_dataset", "generate_alternative_dataset",
    "CollectionSession", "CollectionAgent", "CentralizedController",
    "Channel", "TimeSeriesDatabase", "VirtualClock",
    "InferenceServer", "ServingModelRegistry", "ServingVerdict",
    "DriverSession", "MicroBatchScheduler", "AdmissionController",
    "ReplayReport", "replay_concurrent_drives", "__version__",
]
