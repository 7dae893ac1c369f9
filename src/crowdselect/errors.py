"""Shared exception types for the selection engines."""


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
