"""Shared exception types and input checks for the selection engines."""

import numbers
import time


class DegenerateWindowError(ValueError):
    """Raised when a closed-form peak is requested for a zero-width demand window.

    The peak formulas divide by the window width, so a window whose lower and
    upper positive-count bounds coincide has no defined peak.
    """


class EnumerationLimitError(ValueError):
    """Raised when an exact method would take more subsets or workers than its guard allows."""


class TimeBudgetError(RuntimeError):
    """Raised when an exact method exceeds its wall-clock budget."""

    def __init__(self, budget_s: float, elapsed_s: float):
        super().__init__(
            f"exceeded time budget of {budget_s:g}s after {elapsed_s:g}s"
        )
        self.budget_s = budget_s
        self.elapsed_s = elapsed_s


def check_time_budget(started: float, budget_s: float | None) -> None:
    """Raise TimeBudgetError once budget_s seconds (None: no budget) have passed since started."""
    elapsed = time.perf_counter() - started
    if budget_s is not None and elapsed > budget_s:
        raise TimeBudgetError(budget_s, elapsed)


def is_int(value) -> bool:
    """An int or numpy integer, but not a bool: the rule for every count the engines take."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
