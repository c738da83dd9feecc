"""Exception types shared across the package."""


class CapacityError(Exception):
    """An allocation or scan bound exceeds the configured budget."""


class TupleParseError(Exception):
    """A tuple text file failed to parse."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")
