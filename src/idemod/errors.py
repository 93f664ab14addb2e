"""Exception hierarchy shared by all modules.

The CLI maps these onto its exit-code contract: TheoremViolation -> 1,
SchemaError/DomainError -> 2, MismatchError -> 3; any other exception is an
internal error -> 5.
"""


class IdemodError(Exception):
    pass


class MismatchError(IdemodError):
    """Operands live in different semirings or have incompatible dimensions."""


class DomainError(IdemodError):
    """Value outside the carrier, or operation unsupported for this instance."""


class SchemaError(IdemodError):
    """Malformed input file or scalar text."""


class TheoremViolation(IdemodError):
    """An identity that must hold by theorem failed: internal bug, never user error."""
