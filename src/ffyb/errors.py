"""Shared exception types."""


class BudgetExceededError(Exception):
    """A computation was refused because it exceeds the allowed budget: scan
    steps, census edges, or the decimal digits that str() converts."""

    def __init__(self, required: int, budget: int, what: str = "enumeration",
                 unit: str = "steps"):
        self.required = required
        self.budget = budget
        self.what = what
        try:
            need = str(required)
        except ValueError:  # more digits than str() converts
            need = f"at least 2^{required.bit_length() - 1}"
        super().__init__(f"{what} needs {need} {unit}, budget is {budget}")


class InternalInvariantError(ArithmeticError):
    """A result failed a check that holds for every valid input: a bug."""


class SingularMatrixError(ValueError):
    """Inversion (or conjugation) was attempted with a singular matrix."""
