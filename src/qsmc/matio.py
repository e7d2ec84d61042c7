"""Plain-text matrix I/O.

Two conventions are used throughout the project:

* inline matrices (scenario files, CLI): rows separated by ``;``, entries by
  whitespace, e.g. ``1 0 ; 0 1``;
* plant files: one matrix per paragraph (row-major, whitespace-separated,
  one row per line), paragraphs separated by at least one blank line, in the
  order A, B, C.  Lines starting with ``#`` are comments.
"""

from __future__ import annotations

import numpy as np


class MatrixFormatError(ValueError):
    pass


def parse_matrix(text: str) -> np.ndarray:
    """Parse an inline ``;``-separated matrix literal into a 2-D array."""
    rows = []
    for i, chunk in enumerate(text.split(";")):
        entries = chunk.split()
        if not entries:
            raise MatrixFormatError(f"row {i + 1} is empty")
        try:
            rows.append([float(v) for v in entries])
        except ValueError as exc:
            raise MatrixFormatError(f"row {i + 1}: {exc}") from None
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise MatrixFormatError("rows have inconsistent lengths")
    return np.array(rows, dtype=float)


def parse_vector(text: str) -> np.ndarray:
    """Whitespace-separated vector literal."""
    try:
        vec = np.array([float(v) for v in text.split()], dtype=float)
    except ValueError as exc:
        raise MatrixFormatError(str(exc)) from None
    if vec.size == 0:
        raise MatrixFormatError("empty vector")
    return vec


def _paragraphs(text: str):
    block: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if stripped:
            block.append(stripped)
        elif block:
            yield block
            block = []
    if block:
        yield block


def parse_plant_text(text: str):
    """Parse the three-paragraph A, B, C plant format. Returns (A, B, C)."""
    mats = []
    for block in _paragraphs(text):
        try:
            rows = [[float(v) for v in line.split()] for line in block]
        except ValueError as exc:
            raise MatrixFormatError(f"matrix {len(mats) + 1}: {exc}") from None
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise MatrixFormatError(
                f"matrix {len(mats) + 1}: rows have inconsistent lengths")
        mats.append(np.array(rows, dtype=float))
    if len(mats) != 3:
        raise MatrixFormatError(
            f"expected 3 matrices (A, B, C), found {len(mats)}")
    return tuple(mats)


def read_plant_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_plant_text(fh.read())

