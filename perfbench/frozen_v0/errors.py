"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A tuning parameter lies outside its documented domain."""


class ContractViolation(ValueError):
    """An operation was called with arguments that violate its preconditions."""


class GuardError(RuntimeError):
    """Refusal to materialize more tensor cells than the configured guard."""


class InputParseError(ValueError):
    """A data file could not be parsed; carries 1-based line/column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
