"""Diversity-aware crowd selection.

Two selection engines: a similarity-driven model picking crowds with minimal
average pairwise similarity, and a task-driven model maximizing the chance
that a selected crowd meets a demand for both positive and negative opinions,
backed by exact and approximate Poisson-Binomial computations. Worker
similarity can be derived from profiles or task-history topic models, and a
benchmark harness reproduces the synthetic experiments.
"""

from .errors import DegenerateWindowError, EnumerationLimitError, TimeBudgetError
from .pbd import DemandWindow, WindowKernel
from .tmodel import CandidatePool, SaParams, SelectionResult

__all__ = [
    "CandidatePool",
    "DegenerateWindowError",
    "DemandWindow",
    "EnumerationLimitError",
    "SaParams",
    "SelectionResult",
    "TimeBudgetError",
    "WindowKernel",
]

__version__ = "0.1.0"
