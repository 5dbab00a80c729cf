"""Hierarchical factorization machine for user event-sequence prediction.

The package covers the full workflow: sparse feature schemas, event
encoding and the event store of windows (:mod:`nhfm.data`), the model's
configuration and parameters and its one batched forward and backward
engine, which every command runs
(:mod:`nhfm.model`), training with checkpoints
(:mod:`nhfm.training`, :mod:`nhfm.checkpoint`), AUC/partial-AUC evaluation
(:mod:`nhfm.metrics`), weight- and attention-based explanation
(:mod:`nhfm.explain`), and a CLI (:mod:`nhfm.cli`).
"""

from .data import (Dataset, Event, EventSequence, EventStore, FeatureSchema,
                   FieldSpec, assemble_sequences, encode_event, fit_schema, split)
from .metrics import RunSummary, ScoredSet, auc, mean_ci, spauc, ttest_ind
from .model import ForwardCache, ModelConfig, Parameters, forward, init_parameters
from .synthetic import SynthSpec, synth_generate
from .training import TrainConfig, TrainResult, nll_loss, train

__version__ = "0.1.0"

__all__ = [
    "Dataset", "Event", "EventSequence", "EventStore", "FeatureSchema", "FieldSpec",
    "assemble_sequences", "encode_event", "fit_schema", "split",
    "RunSummary", "ScoredSet", "auc", "mean_ci", "spauc", "ttest_ind",
    "ForwardCache", "ModelConfig", "Parameters", "forward", "init_parameters",
    "SynthSpec", "synth_generate",
    "TrainConfig", "TrainResult", "nll_loss", "train",
    "__version__",
]
