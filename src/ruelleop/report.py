"""Deterministic text output helpers.

Machine-readable files carry floats at 17 significant digits, which is
enough to reproduce every IEEE double exactly; human summaries use 6.
Nothing here depends on wall-clock time, so identical inputs yield
byte-identical output.
"""

import math

MACHINE_DIGITS = 17
HUMAN_DIGITS = 6


def format_float(x, digits=MACHINE_DIGITS):
    """Format a finite float with the given number of significant digits."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        # entropy can be legitimately infinite; JSON cannot carry it, text can
        return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
    return format(x, f".{digits}g")


def json_text(obj, indent=0):
    """Serialize nested dict/list/scalar data to JSON text.

    Floats are written at 17 significant digits so that parsing the text
    back recovers bit-identical values.  Keys are emitted in insertion
    order; the caller controls ordering and hence byte-level determinism.
    """
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {json_text(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        body = ", ".join(json_text(v, indent + 1) for v in obj)
        return "[" + body + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int,)):
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise ValueError("non-finite float cannot be serialized to JSON")
        return format_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON text")
