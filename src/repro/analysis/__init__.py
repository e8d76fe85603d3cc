"""Executable proof obligations and statistics for the experiments."""

from .adversary_search import BivalentHunt, HuntResult, bivalence_score
from .progress import ProgressSample, ProgressTracker
from .invariants import (
    ALLOWED_TRANSITIONS,
    InvariantMonitor,
    InvariantViolation,
    check_class_transition,
    check_safe_point_preserved,
    check_wait_freedom,
    elected_target,
    exact_weber_point,
    phi,
    verify_trace,
)
from .statistics import mean, median

__all__ = [
    "BivalentHunt",
    "HuntResult",
    "bivalence_score",
    "ProgressSample",
    "ProgressTracker",
    "ALLOWED_TRANSITIONS",
    "InvariantMonitor",
    "InvariantViolation",
    "check_class_transition",
    "check_safe_point_preserved",
    "check_wait_freedom",
    "elected_target",
    "exact_weber_point",
    "phi",
    "verify_trace",
    "mean",
    "median",
]
