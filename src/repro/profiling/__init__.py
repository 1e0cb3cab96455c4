"""Execution profiling: the distiller's training-run substrate."""

from repro.profiling.profile_data import (
    BranchProfile,
    LoadProfile,
    Profile,
    VALUE_HISTOGRAM_CAP,
)
from repro.profiling.profiler import profile_many, profile_program

__all__ = [
    "BranchProfile",
    "LoadProfile",
    "Profile",
    "VALUE_HISTOGRAM_CAP",
    "profile_many",
    "profile_program",
]
