"""Capacity sets of state-feedback gains for disturbed initial states."""

from . import capacity
from .capacity import *  # noqa: F403

__all__ = capacity.__all__

__version__ = "0.1.0"
