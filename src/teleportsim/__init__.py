"""Density-matrix simulator for noisy 7-qubit scrambling- and SWAP-based
teleportation circuits."""

from .evolution import EvolutionConfig, NoiseModel
from .metrics import MetricsRecord, average_over_inputs, run_protocol
from .protocol import EncodingKind
from .sweep import SweepConfig, parse_config, run_sweep

__all__ = [
    "EvolutionConfig",
    "NoiseModel",
    "MetricsRecord",
    "average_over_inputs",
    "EncodingKind",
    "run_protocol",
    "SweepConfig",
    "parse_config",
    "run_sweep",
]

__version__ = "0.1.0"
