"""Spatial grid of cells and cell-to-codeword encodings.

A grid holds n cells with centers in the unit square and per-cell alert
probabilities.  An encoding is an injection of cell ids into k-bit
codewords; when n is not a power of two the 2^k - n unassigned codewords
are dummies, usable as don't-cares during token minimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, IO, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Cell:
    id: int
    x: float
    y: float
    p: float


class Grid:
    """Cells with dense ids [0, n), unit-square centers and probabilities."""

    def __init__(self, cells: Sequence[Cell]):
        if not cells:
            raise ValueError("grid needs at least one cell")
        if [c.id for c in cells] != list(range(len(cells))):
            raise ValueError("cell ids must be dense and ordered 0..n-1")
        for c in cells:
            if not 0.0 <= c.p <= 1.0:
                raise ValueError(f"cell {c.id} probability {c.p} outside [0, 1]")
        self.cells: Tuple[Cell, ...] = tuple(cells)

    @property
    def n(self) -> int:
        return len(self.cells)

    @property
    def k(self) -> int:
        """Codeword width needed for a minimal encoding."""
        return max(1, math.ceil(math.log2(self.n))) if self.n > 1 else 1

    def probabilities(self) -> List[float]:
        return [c.p for c in self.cells]

    def centers(self) -> List[Tuple[float, float]]:
        return [(c.x, c.y) for c in self.cells]

    def with_probabilities(self, probs: Sequence[float]) -> "Grid":
        """Same geometry, new probability vector."""
        if len(probs) != self.n:
            raise ValueError("probability vector length mismatch")
        return Grid([Cell(c.id, c.x, c.y, float(p)) for c, p in zip(self.cells, probs)])

    @classmethod
    def regular(cls, n: int, probs: Optional[Sequence[float]] = None) -> "Grid":
        """Near-square lattice of n cells over the unit square, row-major
        from the top-left."""
        if n < 1:
            raise ValueError("n must be >= 1")
        cols = math.ceil(math.sqrt(n))
        rows = math.ceil(n / cols)
        if probs is None:
            probs = [0.5] * n
        if len(probs) != n:
            raise ValueError("probability vector length mismatch")
        cells = []
        for i in range(n):
            r, c = divmod(i, cols)
            cells.append(Cell(
                id=i,
                x=(c + 0.5) / cols,
                y=1.0 - (r + 0.5) / rows,
                p=float(probs[i]),
            ))
        return cls(cells)


@dataclass(frozen=True)
class GridEncoding:
    """Injection of cell ids into k-bit codewords.

    Minimal-width encodings have k = ceil(log2 n); the hierarchical
    baseline pads to full quadtree levels and may use a larger k.
    """

    n: int
    k: int
    forward: Tuple[int, ...]                       # cell id -> codeword value
    algorithm: str = "unknown"
    _reverse: Dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.forward) != self.n:
            raise ValueError("forward map must cover every cell")
        min_k = max(1, math.ceil(math.log2(self.n))) if self.n > 1 else 1
        if self.k < min_k:
            raise ValueError("codeword width too small for cell count")
        reverse: Dict[int, int] = {}
        for cell_id, value in enumerate(self.forward):
            if not 0 <= value < (1 << self.k):
                raise ValueError(f"codeword {value} out of range for width {self.k}")
            if value in reverse:
                raise ValueError(f"codeword {value} assigned twice")
            reverse[value] = cell_id
        object.__setattr__(self, "_reverse", reverse)

    @property
    def space(self) -> int:
        return 1 << self.k

    def value(self, cell_id: int) -> int:
        return self.forward[cell_id]

    def cell_at(self, value: int) -> Optional[int]:
        """Cell mapped to a codeword value, or None for a dummy."""
        return self._reverse.get(value)

    def dummies(self) -> List[int]:
        """Codeword values that map to no cell, ascending."""
        return [v for v in range(self.space) if v not in self._reverse]

    @property
    def dummy_count(self) -> int:
        return self.space - self.n


def quadtree_levels(n: int) -> int:
    """Depth of the smallest quadtree with a leaf for each of n cells; at
    two bits a level, the widest encoding of a regular grid (HGE's)."""
    return max(1, math.ceil(math.log(n, 4)))


def _check_file_width(n: int, k: int) -> None:
    """Encoding files hold widths up to a regular grid's HGE width, so a
    reader never sizes a 2^k dummy list from an unchecked header."""
    widest = 2 * quadtree_levels(n)
    if k > widest:
        raise ValueError(f"encoding width k={k} exceeds {widest}, "
                         f"the widest encoding file of {n} cells")


def write_encoding(fp: IO[str], enc: GridEncoding, params: str = "", seed: Optional[int] = None) -> None:
    """One record per line: cell id, TAB, msb-first codeword.  Widths
    beyond `quadtree_levels(n)` two-bit levels raise ValueError before
    anything is written."""
    _check_file_width(enc.n, enc.k)
    fp.write(f"# n={enc.n} k={enc.k} algorithm={enc.algorithm}"
             f" params={params or '-'} seed={'-' if seed is None else seed}\n")
    for cell_id, value in enumerate(enc.forward):
        fp.write(f"{cell_id}\t{value:0{enc.k}b}\n")


def read_encoding(fp: IO[str]) -> GridEncoding:
    """Parse the format `write_encoding` writes; any malformed header or
    record raises ValueError with a one-line diagnostic."""
    header = fp.readline()
    if not header.startswith("#"):
        raise ValueError("encoding file must start with a header line")
    meta = {}
    for item in header[1:].split():
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"encoding header item {item!r} is not key=value")
        meta[key] = value
    n = _header_int(meta, "n")
    k = _header_int(meta, "k")
    _check_file_width(n, k)
    forward: Dict[int, int] = {}
    for lineno, line in enumerate(fp, start=2):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 2 or not _is_decimal(parts[0]):
            raise ValueError(f"encoding line {lineno}: expected '<cell id>\\t<codeword>'")
        cell, word = int(parts[0]), parts[1].strip()
        if cell >= n:
            raise ValueError(f"encoding line {lineno}: cell {cell} outside [0, {n})")
        if len(word) != k or set(word) - {"0", "1"}:
            raise ValueError(f"encoding line {lineno}: {word!r} is not a {k}-bit codeword")
        if cell in forward:
            raise ValueError(f"encoding line {lineno}: cell {cell} listed twice")
        forward[cell] = int(word, 2)
    if len(forward) != n:
        raise ValueError("encoding file is missing cells")
    return GridEncoding(n=n, k=k, forward=tuple(forward[c] for c in range(n)),
                        algorithm=meta.get("algorithm", "unknown"))


def _is_decimal(text: str) -> bool:
    return text.isascii() and text.isdigit()


def _header_int(meta: Dict[str, str], key: str) -> int:
    text = meta.get(key, "")
    if not _is_decimal(text) or int(text) < 1:
        raise ValueError(f"encoding header needs a positive integer {key}=")
    return int(text)
