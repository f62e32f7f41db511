"""Shared exception types."""


class BudgetExceededError(Exception):
    """An exhaustive scan was refused because it exceeds the allowed budget."""

    def __init__(self, required: int, budget: int, what: str = "enumeration"):
        self.required = required
        self.budget = budget
        self.what = what
        super().__init__(f"{what} needs {required} steps, budget is {budget}")


class InternalInvariantError(ArithmeticError):
    """A result failed a check that holds for every valid input: a bug."""


class SingularMatrixError(ValueError):
    """Inversion (or conjugation) was attempted with a singular matrix."""
