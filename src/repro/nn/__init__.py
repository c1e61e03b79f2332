"""Pure-numpy neural-network substrate.

This subpackage is a self-contained deep-learning framework — layers with
hand-derived backward passes, losses, optimizers, a training-loop wrapper,
metrics, checkpointing, and numerical gradient checking — sufficient to
train the Inception-style CNN and bidirectional-LSTM RNN that DarNet's
analytics engine is built from.
"""

from repro.nn.layers.base import Layer, Parameter, assert_float32
from repro.nn.layers.dense import Dense
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.pooling import AvgPool2D, GlobalAvgPool2D, MaxPool2D
from repro.nn.layers.activations import (
    LeakyReLU,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
    log_softmax,
    softmax,
)
from repro.nn.layers.batchnorm import BatchNorm
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.flatten import Flatten, Reshape
from repro.nn.layers.sequential import Sequential
from repro.nn.layers.merge import ParallelBranches, Residual
from repro.nn.recurrent.lstm import LSTM
from repro.nn.recurrent.bidirectional import BidirectionalLSTM
from repro.nn.recurrent.gru import GRU
from repro.nn.recurrent.bigru import BidirectionalGRU
from repro.nn.losses import HingeLoss, Loss, MSELoss, SoftmaxCrossEntropy
from repro.nn.optimizers import SGD, Adam, LearningRateSchedule, Optimizer
from repro.nn.model import NeuralNetwork, TrainingHistory, iterate_minibatches
from repro.nn.metrics import (
    accuracy,
    confusion_matrix,
    format_confusion,
    normalized_confusion,
    per_class_accuracy,
    precision_recall_f1,
    top_k_accuracy,
)
from repro.nn.compile import backend_names, compile_network, using_backend
from repro.nn.serialization import copy_weights, load_weights, save_weights

__all__ = [
    "Layer", "Parameter", "assert_float32", "Dense", "Conv2D", "MaxPool2D",
    "AvgPool2D",
    "backend_names", "compile_network", "using_backend",
    "GlobalAvgPool2D", "ReLU", "LeakyReLU", "Sigmoid", "Tanh", "Softmax",
    "softmax", "log_softmax", "BatchNorm", "Dropout", "Flatten", "Reshape",
    "Sequential", "ParallelBranches", "Residual", "LSTM", "BidirectionalLSTM",
    "GRU", "BidirectionalGRU",
    "Loss", "SoftmaxCrossEntropy", "MSELoss", "HingeLoss", "SGD", "Adam",
    "LearningRateSchedule", "Optimizer", "NeuralNetwork", "TrainingHistory",
    "iterate_minibatches", "accuracy", "top_k_accuracy", "confusion_matrix",
    "normalized_confusion", "per_class_accuracy", "precision_recall_f1",
    "format_confusion", "save_weights", "load_weights", "copy_weights",
]
