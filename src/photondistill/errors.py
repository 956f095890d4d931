"""Exception types and the CSV header check shared across the package."""


class ModelError(Exception):
    """Base class for physics/model-level failures."""


class EmptyBranchError(ModelError):
    """Raised when a heralded branch has zero probability (state undefined)."""


class IllConditionedError(ModelError):
    """Raised when an inverse-loss transformation would amplify noise beyond bounds."""


class InconsistentBudgetError(ValueError):
    """Raised when a residual-loss computation would yield a negative loss."""


def _require_columns(path, header, names):
    """Raise ValueError naming the first of `names` missing from a CSV header."""
    missing = [name for name in names if name not in (header or [])]
    if missing:
        raise ValueError(f"{path}: no {missing[0]!r} column in header {header}")
