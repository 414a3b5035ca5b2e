"""Spatial grid of cells and cell-to-codeword encodings.

A grid holds n cells as three read-only float64 arrays indexed by cell
id: the centers `x` and `y` in the unit square and the alert
probabilities `p`.  An encoding is an injection of cell ids into k-bit
codewords; when n is not a power of two the 2^k - n unassigned codewords
are dummies, usable as don't-cares during token minimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, IO, List, Optional, Sequence, Tuple

import numpy as np


def min_width(n: int) -> int:
    """Codeword width of a minimal encoding of n cells: ceil(log2 n), at
    least 1."""
    return max(1, (n - 1).bit_length())


def _read_only(values: Sequence[float]) -> np.ndarray:
    """`values` as a read-only float64 array; one that already is one is
    shared rather than copied."""
    if (isinstance(values, np.ndarray) and values.dtype == np.float64
            and not values.flags.writeable):
        return values
    array = np.array(values, dtype=np.float64)
    array.setflags(write=False)
    return array


class Grid:
    """n >= 1 cells: centers `x`, `y` and probabilities `p` in [0, 1],
    read-only float64 arrays indexed by cell id."""

    def __init__(self, x: Sequence[float], y: Sequence[float],
                 p: Sequence[float]):
        x, y, p = _read_only(x), _read_only(y), _read_only(p)
        if not (x.ndim == y.ndim == p.ndim == 1 and x.size == y.size == p.size):
            raise ValueError(f"x, y and p must be vectors of one length, "
                             f"not shapes {x.shape}, {y.shape}, {p.shape}")
        if not p.size:
            raise ValueError("grid needs at least one cell")
        bad = ~((p >= 0.0) & (p <= 1.0))        # NaN included
        if bad.any():
            cell = int(bad.argmax())
            raise ValueError(f"cell {cell} probability {p[cell]} outside [0, 1]")
        self.x, self.y, self.p = x, y, p

    @property
    def n(self) -> int:
        return self.p.size

    @property
    def k(self) -> int:
        """Codeword width needed for a minimal encoding."""
        return min_width(self.n)

    def probabilities(self) -> List[float]:
        return self.p.tolist()

    def with_probabilities(self, probs: Sequence[float]) -> "Grid":
        """Same geometry, new probability vector."""
        return Grid(self.x, self.y, probs)

    @classmethod
    def regular(cls, n: int, probs: Optional[Sequence[float]] = None) -> "Grid":
        """Near-square lattice of n cells over the unit square, row-major
        from the top-left."""
        if n < 1:
            raise ValueError("n must be >= 1")
        cols = math.ceil(math.sqrt(n))
        rows = math.ceil(n / cols)
        # one value per column and per row, spread over the cells; made
        # read-only so that the constructor shares rather than copies them
        x = np.resize((np.arange(cols) + 0.5) / cols, n)
        y = np.repeat(1.0 - (np.arange(rows) + 0.5) / rows, cols)[:n]
        x.setflags(write=False)
        y.setflags(write=False)
        return cls(x, y, np.full(n, 0.5) if probs is None else probs)


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

    def __post_init__(self):
        if len(self.forward) != self.n:
            raise ValueError("forward map must cover every cell")
        if self.k < min_width(self.n):
            raise ValueError("codeword width too small for cell count")
        space = 1 << self.k
        if self.n and (min(self.forward) < 0 or max(self.forward) >= space):
            bad = next(v for v in self.forward if not 0 <= v < space)
            raise ValueError(f"codeword {bad} out of range for width {self.k}")
        if len(set(self.forward)) != self.n:
            seen = set()
            bad = next(v for v in self.forward if v in seen or seen.add(v))
            raise ValueError(f"codeword {bad} assigned twice")

    @cached_property
    def _reverse(self) -> Dict[int, int]:
        """Codeword value -> cell id, built on the first lookup: most
        encodings are only read forward.  A dict, not a 2^k array, since
        k may reach 48."""
        return dict(zip(self.forward, range(self.n)))

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
