"""Exception hierarchy shared by all dqkit modules."""


class DqkitError(Exception):
    """Base class for all dqkit errors."""


class DimensionMismatchError(DqkitError):
    pass


class OrderMismatchError(DqkitError):
    pass


class ArityMismatchError(DqkitError):
    pass


class DegreeError(DqkitError):
    pass


class IndexRangeError(DqkitError):
    pass


class PolyParseError(DqkitError):
    """Syntax or semantic error in a polynomial expression, with position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class SchemaError(DqkitError):
    """Document schema violation, with a JSON path to the offending field."""

    def __init__(self, message, path="$"):
        super().__init__(f"{path}: {message}")
        self.message = message
        self.path = path


class PreconditionError(DqkitError):
    """A mathematical precondition of an operation failed; may carry a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SolveError(DqkitError):
    """A bounded linear solve had no solution; carries the residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BudgetError(DqkitError):
    """An input above a declared size budget, refused before any work."""
