"""Deterministic control plane for cascaded simultaneous speech translation.

The package simulates the decision layer of a streaming ASR+MT cascade:
incremental transcript commitment by hypothesis agreement, beam-vote
translation emission behind a wait-k gate, sentinel-delimited history with
attention-based source segmentation, prefix training data generation, and
stream-level quality/latency metrics. Model inference is behind a backend
contract with deterministic mocks and a line-delimited JSON wire protocol.
"""

from .core import (
    SENTINEL,
    AsrHypothesis,
    BackendError,
    BeamHypothesis,
    BeamSet,
    EmissionRecord,
    InvalidArgumentError,
    ProtocolError,
    TimedWord,
    VirtualClock,
)
from .pipeline import Pipeline, PipelineConfig, preset_config

__version__ = "0.1.0"

__all__ = [
    "SENTINEL",
    "AsrHypothesis",
    "BackendError",
    "BeamHypothesis",
    "BeamSet",
    "EmissionRecord",
    "InvalidArgumentError",
    "Pipeline",
    "PipelineConfig",
    "ProtocolError",
    "TimedWord",
    "VirtualClock",
    "preset_config",
    "__version__",
]
