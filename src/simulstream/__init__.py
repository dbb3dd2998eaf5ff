"""Deterministic control plane for cascaded simultaneous speech translation.

The package simulates the decision layer of a streaming ASR+MT cascade:
incremental transcript commitment by hypothesis agreement, beam-vote
translation emission behind a wait-k gate, sentinel-delimited history with
attention-based source segmentation, prefix training data generation, and
stream-level quality/latency metrics. Model inference is behind a backend
contract with deterministic mocks and a line-delimited JSON wire protocol.

Importing the package loads ``core`` only; each layer is imported from its
own module (``Pipeline`` and ``preset_config`` from ``simulstream.pipeline``).
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

__version__ = "0.1.0"

__all__ = [
    "SENTINEL",
    "AsrHypothesis",
    "BackendError",
    "BeamHypothesis",
    "BeamSet",
    "EmissionRecord",
    "InvalidArgumentError",
    "ProtocolError",
    "TimedWord",
    "VirtualClock",
    "__version__",
]
