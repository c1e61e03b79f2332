"""Experiment scales and the paper's reference numbers.

Every table/figure runner takes an :class:`ExperimentScale` so the same
code serves three audiences: the test suite (``SMOKE`` — seconds), the
benchmark harness (``DEFAULT`` — minutes, reproduces the paper's shape),
and overnight validation (``FULL``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade fidelity for wall-clock time."""

    name: str
    dataset_samples: int          # Table-2 paired dataset size
    alt_samples_per_class: int    # Table-3 dataset size (x18 classes)
    cnn_epochs: int
    rnn_epochs: int
    distill_epochs: int
    cnn_width: float
    drives_per_driver: int        # Table-1 collection repetitions
    num_drivers: int
    segment_seconds: float


SMOKE = ExperimentScale(
    name="smoke", dataset_samples=120, alt_samples_per_class=6,
    cnn_epochs=2, rnn_epochs=3, distill_epochs=2, cnn_width=0.5,
    drives_per_driver=1, num_drivers=2, segment_seconds=6.0,
)

DEFAULT = ExperimentScale(
    name="default", dataset_samples=1200, alt_samples_per_class=40,
    cnn_epochs=18, rnn_epochs=40, distill_epochs=15, cnn_width=1.0,
    drives_per_driver=1, num_drivers=5, segment_seconds=15.0,
)

FULL = ExperimentScale(
    name="full", dataset_samples=3000, alt_samples_per_class=80,
    cnn_epochs=25, rnn_epochs=60, distill_epochs=20, cnn_width=1.0,
    drives_per_driver=2, num_drivers=5, segment_seconds=15.0,
)

_SCALES = {scale.name: scale for scale in (SMOKE, DEFAULT, FULL)}


def get_scale(name: str) -> ExperimentScale:
    """Look up a scale preset by name."""
    try:
        return _SCALES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scale {name!r}; choose from {sorted(_SCALES)}"
        ) from None


# ---------------------------------------------------------------------------
# Reference numbers from the paper, for side-by-side reporting.
# ---------------------------------------------------------------------------

#: Table 2 — ensemble Top-1 classification on the collected dataset.
PAPER_TABLE2 = {"cnn+rnn": 0.8702, "cnn+svm": 0.8623, "cnn": 0.7388}

#: §5.2 — IMU-sequence-only accuracy.
PAPER_IMU_ONLY = {"rnn": 0.9744, "svm": 0.9537}

#: Table 3 — CNN and dCNN Top-1 on the 18-class alternative dataset.
PAPER_TABLE3 = {"cnn": 0.7887, "dCNN-L": 0.8000, "dCNN-M": 0.7778,
                "dCNN-H": 0.6313}
