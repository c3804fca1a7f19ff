"""Shuffle-model differentially private bandits: mechanism, audit, experiments."""

__version__ = "0.1.0"

from .env import BanditInstance, RewardTape, SeedSpec, make_instance
from .mechanism import (PrivacyParams, SumEstimate, analyze, derive_params,
                        encode, noisy_sum, private_sum, shuffle)
from .bandit import EngineConfig, RegretTrace, run_episode
from .harness import ExperimentConfig, parse_config, run_experiment

__all__ = [
    "BanditInstance", "RewardTape", "SeedSpec", "make_instance",
    "PrivacyParams", "SumEstimate", "analyze", "noisy_sum",
    "derive_params", "encode", "private_sum", "shuffle",
    "EngineConfig", "RegretTrace", "run_episode",
    "ExperimentConfig", "parse_config", "run_experiment", "__version__",
]
