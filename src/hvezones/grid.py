"""Spatial grid of cells and cell-to-codeword encodings.

A grid holds n cells as three read-only float64 arrays indexed by cell
id: the centers `x` and `y` in the unit square and the alert
probabilities `p`.  An encoding is an injection of cell ids into k-bit
codewords, k <= 62, held the same way: one read-only int64 array of
codewords indexed by cell id.  Reverse lookups search a sorted copy of
that array, built on the first lookup.  When n is not a power of two the
2^k - n unassigned codewords are dummies, usable as don't-cares during
token minimization.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Dict, IO, List, Optional, Sequence, Tuple

import numpy as np


def min_width(n: int) -> int:
    """Codeword width of a minimal encoding of n cells: ceil(log2 n), at
    least 1."""
    return max(1, (n - 1).bit_length())


def _read_only(values: Sequence, dtype: type = np.float64) -> np.ndarray:
    """`values` as a read-only array of `dtype`; one that already is one is
    shared rather than copied."""
    if (isinstance(values, np.ndarray) and values.dtype == dtype
            and not values.flags.writeable):
        return values
    array = np.array(values, dtype=dtype)
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


MAX_WIDTH = 62     # 2^k and every codeword fit in int64


class GridEncoding:
    """Injection of cell ids into k-bit codewords, held as `codewords`, one
    read-only int64 array indexed by cell id.

    Minimal-width encodings have k = ceil(log2 n); the hierarchical
    baseline pads to full quadtree levels and may use a larger k, up to
    MAX_WIDTH.  Equality and hashing go by value: n, k, codewords and
    algorithm.
    """

    def __init__(self, n: int, k: int, forward: Sequence[int],
                 algorithm: str = "unknown"):
        if k > MAX_WIDTH:
            raise ValueError(f"codeword width k={k} exceeds {MAX_WIDTH}")
        try:
            codes = _read_only(forward, np.int64)
        except OverflowError:       # a Python int beyond int64 is out of range
            bad = next(v for v in forward if not 0 <= v < 1 << k)
            raise ValueError(f"codeword {bad} out of range for width {k}") from None
        if codes.ndim != 1 or codes.size != n:
            raise ValueError("forward map must cover every cell")
        if k < min_width(n):
            raise ValueError("codeword width too small for cell count")
        values, cells = _by_codeword(codes)
        if n and not (int(values[0]) >= 0 and int(values[-1]) < 1 << k):
            bad = (codes < 0) | (codes >= 1 << k)
            raise ValueError(f"codeword {codes[bad.argmax()]} out of range for width {k}")
        gaps = np.diff(values)
        if not gaps.all():
            # the first cell, in id order, whose codeword an earlier cell holds
            repeat = cells[1:][gaps == 0].min()
            raise ValueError(f"codeword {codes[repeat]} assigned twice")
        for name, value in (("n", n), ("k", k), ("codewords", codes),
                            ("algorithm", algorithm)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a GridEncoding")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a GridEncoding")

    def __eq__(self, other):
        if not isinstance(other, GridEncoding):
            return NotImplemented
        return (self.n, self.k, self.algorithm) == (other.n, other.k, other.algorithm) \
            and np.array_equal(self.codewords, other.codewords)

    def __hash__(self):
        return hash((self.n, self.k, self.codewords.tobytes(), self.algorithm))

    def __repr__(self):
        return (f"GridEncoding(n={self.n}, k={self.k}, "
                f"forward={tuple(self.codewords.tolist())!r}, "
                f"algorithm={self.algorithm!r})")

    @cached_property
    def _lookup(self) -> Tuple[np.ndarray, np.ndarray]:
        """The codewords ascending and the cell holding each, built on the
        first lookup: most encodings are only read forward.  Arrays of n,
        not of 2^k, since k may reach MAX_WIDTH."""
        return _by_codeword(self.codewords)

    @property
    def space(self) -> int:
        return 1 << self.k

    def value(self, cell_id: int) -> int:
        return int(self.codewords[cell_id])

    def cell_at(self, value: int) -> Optional[int]:
        """Cell mapped to a codeword value, or None for a dummy."""
        if not 0 <= value < self.space:
            return None
        values, cells = self._lookup
        i = int(values.searchsorted(value))
        return int(cells[i]) if i < values.size and values[i] == value else None

    def dummies(self) -> List[int]:
        """Codeword values that map to no cell, ascending."""
        free = np.ones(self.space, dtype=bool)
        free[self.codewords] = False
        return np.flatnonzero(free).tolist()


def _by_codeword(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The codewords ascending and the cell holding each, ties by cell id.
    A stable argsort, which the encoders already run: the checks page in
    no further numpy sort code."""
    cells = np.argsort(codes, kind="stable")
    return codes[cells], cells


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
    for cell_id, value in enumerate(enc.codewords.tolist()):
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
    return GridEncoding(n=n, k=k, forward=[forward[c] for c in range(n)],
                        algorithm=meta.get("algorithm", "unknown"))


def _is_decimal(text: str) -> bool:
    return text.isascii() and text.isdigit()


def _header_int(meta: Dict[str, str], key: str) -> int:
    text = meta.get(key, "")
    if not _is_decimal(text) or int(text) < 1:
        raise ValueError(f"encoding header needs a positive integer {key}=")
    return int(text)
