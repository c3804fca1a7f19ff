"""Shuffle-model private bandits; each name lives in its own module."""

__version__ = "0.1.0"
