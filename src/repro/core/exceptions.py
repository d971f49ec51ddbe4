"""Exception hierarchy for the list-labeling library.

All library-specific errors derive from :class:`LabelerError` so callers can
catch a single base class.  The hierarchy intentionally mirrors the three
failure modes a list-labeling data structure can hit:

* a caller supplied an out-of-range rank (:class:`RankError`);
* the structure was asked to hold more elements than its declared capacity
  (:class:`CapacityError`);
* an internal invariant was violated (:class:`InvariantViolation`) — this is
  always a bug in the implementation, never a user error, and the validation
  helpers in :mod:`repro.core.validation` raise it eagerly in tests.
"""

from __future__ import annotations

import operator


class LabelerError(Exception):
    """Base class for all errors raised by the repro library."""


def is_rank(value) -> bool:
    """Whether ``value`` can serve as a rank: an integer, never a ``bool``.

    Anything :func:`operator.index` accepts (``int``, numpy integers)
    qualifies; floats do not, not even integral ones such as ``2.0``.
    """
    if type(value) is int:
        return True
    if isinstance(value, bool):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


class RankError(LabelerError, ValueError):
    """An operation referenced a non-integer rank or one outside the range.

    Insertion ranks must lie in ``[1, size + 1]`` and deletion ranks in
    ``[1, size]`` where ``size`` is the number of stored elements, following
    Definition 1 of the paper; see :func:`is_rank` for what counts as an
    integer.
    """

    def __init__(self, rank: int, size: int, operation: str) -> None:
        self.rank = rank
        self.size = size
        self.operation = operation
        if is_rank(rank):
            message = (
                f"{operation} rank {rank} out of range for a structure "
                f"holding {size} element(s)"
            )
        else:
            message = f"{operation} rank {rank!r} is not an integer"
        super().__init__(message)


class BatchError(LabelerError, ValueError):
    """A batch operation was malformed.

    Raised when a batch references a non-integer rank or an out-of-range
    rank against the pre-batch state, when a delete batch names the same
    rank twice, or when an insert batch would push the structure past its
    capacity.  The whole batch is validated before any element moves, so a
    rejected batch leaves the structure untouched.
    """


class CapacityError(LabelerError):
    """The structure was asked to store more elements than its capacity."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        super().__init__(f"structure is full (capacity {capacity})")


class InvariantViolation(LabelerError, AssertionError):
    """An internal invariant of a list-labeling structure was violated."""
