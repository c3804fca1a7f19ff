"""Shuffle-model differentially private bandits: mechanism, audit, experiments."""

__version__ = "0.1.0"

from .env import BanditInstance, RewardTape, SeedSpec, make_instance
from .mechanism import (PrivacyParams, SumEstimate, analyze, derive_params,
                        encode, private_sum, shuffle)
from .audit import AuditReport, audit_grid, hockey_stick, noise_distribution
from .bandit import (ArmState, BatchSchedule, EngineConfig, RegretTrace,
                     run_episode)
from .harness import ExperimentConfig, parse_config, run_experiment

__all__ = [
    "BanditInstance", "RewardTape", "SeedSpec", "make_instance",
    "PrivacyParams", "SumEstimate", "analyze",
    "derive_params", "encode", "private_sum", "shuffle", "AuditReport",
    "audit_grid", "hockey_stick", "noise_distribution", "ArmState",
    "BatchSchedule", "EngineConfig", "RegretTrace", "run_episode",
    "ExperimentConfig", "parse_config", "run_experiment", "__version__",
]
