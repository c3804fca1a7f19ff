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
    "derive_params", "encode", "private_sum", "shuffle", "AuditReport",
    "audit_grid", "hockey_stick", "noise_distribution",
    "EngineConfig", "RegretTrace", "run_episode",
    "ExperimentConfig", "parse_config", "run_experiment", "__version__",
]

_AUDIT_NAMES = ("AuditReport", "audit_grid", "hockey_stick",
                "noise_distribution")


def __getattr__(name):
    # the audit imports scipy.stats, about a second per interpreter, which
    # the experiment runner never needs
    if name in _AUDIT_NAMES:
        from . import audit
        return getattr(audit, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
