"""Exception types shared across the package, and ``_shown``, which their messages show values with."""


def _shown(value, show=repr) -> str:
    """``show(value)``, or a placeholder when ``value`` nests too deeply for that to finish."""
    try:
        return show(value)
    except RecursionError:
        return f"<{type(value).__name__} nested too deeply to show>"


class ObskitError(Exception):
    """Base class for every error raised by this library."""


class DefinitionError(ObskitError):
    """A machine, rule, or argument is structurally invalid."""


class IdentifierError(ObskitError):
    """An identifier is not a member of the set it was looked up in."""


class IncompatibleAlphabetsError(ObskitError):
    """Observer and environment alphabets do not line up."""


class MorphismShapeError(ObskitError):
    """A morphism's maps are not total on the source or leave the target sets."""


class WiringError(ObskitError):
    """A stack wiring is not total or points outside the alphabets."""


class MetaCycleError(ObskitError):
    """An observation edge would make the meta-observation graph cyclic."""


class LedgerOrderError(ObskitError):
    """Fact ledger entries for one observer must arrive in step order."""


class CapExceededError(ObskitError):
    """An iteration cap was reached before the run settled."""


class EncodingError(ObskitError):
    """Observer alphabets do not match the lattice block encoding."""


class NumericalError(ObskitError):
    """A linear system could not be solved."""


class DocumentError(ObskitError):
    """A document violates the file format."""


class DocumentParseError(DocumentError):
    """The document is not valid JSON."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{_shown(message, str)} (line {_shown(line, str)}, column {_shown(column, str)})"
        super().__init__(message)
        self.line = line
        self.column = column


class DocumentCompletenessError(DocumentError):
    """A required table entry is missing from a document."""


class DocumentReferenceError(DocumentError):
    """A document table references an undeclared identifier."""
