"""Package-wide resource settings.

A single cap bounds how many cylinders any operation may enumerate or
allocate.  Every code path that materializes a vector over depth-d
cylinders checks the cap through :func:`check_cylinder_count`, so one
setting governs the whole package.  So do the allocations that build a
model: a uniform space's n weights, a Gauss-Legendre rule's n x n
companion matrix, the rotor's and the renewal potential's tables, and
the renewal scan's quotients.
"""

from .errors import ResourceCapError

DEFAULT_CYLINDER_CAP = 10_000_000

_cylinder_cap = DEFAULT_CYLINDER_CAP


def cylinder_cap():
    """Return the current cap on enumerable cylinder counts."""
    return _cylinder_cap


def set_cylinder_cap(cap):
    """Set the cap on enumerable cylinder counts (a positive integer)."""
    global _cylinder_cap
    cap = int(cap)
    if cap < 1:
        raise ValueError("cylinder cap must be a positive integer")
    _cylinder_cap = cap


def check_cylinder_count(n_symbols, depth):
    """Validate that n_symbols**depth fits under the cap and return it.

    Raises
    ------
    ResourceCapError
        If the count exceeds the configured cap.  Exact integer
        arithmetic is used, so no overflow can hide a violation.
    """
    count = int(n_symbols) ** int(depth)
    if count > _cylinder_cap:
        raise ResourceCapError(
            f"{n_symbols}^{depth} = {count} cylinders exceeds the cap "
            f"of {_cylinder_cap}; raise it with set_cylinder_cap() if intended"
        )
    return count
