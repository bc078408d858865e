"""Deterministic JSON/CSV rendering and matrix encoding for the CLI.

Floats are written as ``%.17g``, a row or array of them in one :func:`fmt_row` call, so
serialized doubles round-trip exactly and repeated runs produce byte-identical artifacts;
JSON has no NaN or infinity, so :func:`dumps` writes those as ``null``.
Complex matrices travel as nested row-major arrays of [re, im] pairs.
"""

from __future__ import annotations

import math

import numpy as np


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def fmt_row(row, sep: str = ",") -> str:
    """``sep.join(map(fmt_float, row))`` for a sequence of floats, in one format call."""
    return sep.join(["%.17g"] * len(row)) % tuple(row)


def dumps(obj) -> str:
    """Render a JSON document with fixed float formatting and key order, indented by 2."""
    return _render(obj, 0) + "\n"


def _render(obj, depth: int) -> str:
    pad = "  " * (depth + 1)
    close_pad = "  " * depth
    sep = ",\n" + pad
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sep.join(
            f"{_escape(str(k))}: {_render(v, depth + 1)}" for k, v in obj.items()
        )
        return "{\n" + pad + items + "\n" + close_pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        finite_floats = all(type(v) is float for v in seq) and all(map(math.isfinite, seq))
        items = fmt_row(seq, sep) if finite_floats else sep.join(_render(v, depth + 1) for v in seq)
        return "[\n" + pad + items + "\n" + close_pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _escape(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def matrix_to_json(m: np.ndarray) -> list:
    """Complex matrix to nested row-major [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def is_number(x) -> bool:
    """A JSON number: int or float, not a bool (JSON true/false load as bools)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def matrix_from_json(data) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`; every entry must be an array of two numbers."""
    rows = []
    for i, row in enumerate(data):
        if not all(isinstance(z, list) and len(z) == 2 and all(map(is_number, z)) for z in row):
            raise ValueError(f"matrix row {i} must hold [re, im] pairs of numbers, got {row!r}")
        rows.append([complex(float(z[0]), float(z[1])) for z in row])
    m = np.array(rows, dtype=complex)
    if m.ndim != 2:
        raise ValueError("matrix JSON must be a nested list of [re, im] pairs")
    return m
