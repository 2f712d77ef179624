"""Deterministic text output helpers.

Machine-readable files carry floats at 17 significant digits, which is
enough to reproduce every IEEE double exactly; human summaries use 6.
Nothing here depends on wall-clock time, so identical inputs yield
byte-identical output.
"""

MACHINE_DIGITS = 17
HUMAN_DIGITS = 6


def format_float(x, digits=MACHINE_DIGITS):
    """Format a float with the given number of significant digits (``nan``, ``inf``, ``-inf`` as such)."""
    return format(float(x), f".{digits}g")
