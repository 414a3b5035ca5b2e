"""Grid and encoding types plus the encoding file format."""

import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvezones.grid import (Cell, Grid, GridEncoding, quadtree_levels,
                           read_encoding, write_encoding)
from hvezones.optimizers import hge_baseline


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid([])
    with pytest.raises(ValueError):
        Grid([Cell(1, 0.5, 0.5, 0.5)])  # ids must start at 0
    with pytest.raises(ValueError):
        Grid([Cell(0, 0.5, 0.5, 1.5)])  # probability out of range


def test_regular_grid_geometry():
    g = Grid.regular(4)
    assert g.n == 4 and g.k == 2
    # row-major from the top-left: cell 0 is NW, cell 3 SE
    assert g.cells[0].x < g.cells[1].x
    assert g.cells[0].y > g.cells[2].y
    assert all(0 < c.x < 1 and 0 < c.y < 1 for c in g.cells)


def test_grid_k_values():
    assert Grid.regular(1).k == 1
    assert Grid.regular(2).k == 1
    assert Grid.regular(5).k == 3
    assert Grid.regular(1024).k == 10


def test_with_probabilities_keeps_geometry():
    g = Grid.regular(6, [0.1] * 6)
    h = g.with_probabilities([0.2] * 6)
    assert h.centers() == g.centers()
    assert h.probabilities() == [0.2] * 6


def test_encoding_invariants():
    enc = GridEncoding(n=3, k=2, forward=(0, 2, 3), algorithm="x")
    assert enc.dummy_count == 1
    assert enc.dummies() == [1]
    assert enc.cell_at(2) == 1
    assert enc.cell_at(1) is None


def test_encoding_rejects_duplicates_and_bad_width():
    with pytest.raises(ValueError):
        GridEncoding(n=2, k=1, forward=(0, 0), algorithm="x")
    with pytest.raises(ValueError):
        GridEncoding(n=5, k=2, forward=(0, 1, 2, 3, 4), algorithm="x")
    with pytest.raises(ValueError):
        GridEncoding(n=2, k=1, forward=(0, 2), algorithm="x")


def test_encoding_file_round_trip():
    enc = GridEncoding(n=5, k=3, forward=(4, 0, 7, 2, 1), algorithm="GO")
    buf = io.StringIO()
    write_encoding(buf, enc, params="depth=3", seed=9)
    buf.seek(0)
    loaded = read_encoding(buf)
    assert loaded.forward == enc.forward
    assert loaded.k == enc.k
    assert loaded.algorithm == "GO"
    text = buf.getvalue()
    assert text.splitlines()[0].startswith("# n=5 k=3 algorithm=GO")
    assert "2\t111" in text  # cell 2 holds codeword 7, msb-first


def test_encoding_file_rejects_missing_cells():
    buf = io.StringIO("# n=2 k=1 algorithm=x params=- seed=-\n0\t0\n")
    with pytest.raises(ValueError):
        read_encoding(buf)


HEADER = "# n=2 k=1 algorithm=x params=- seed=-\n"
MALFORMED_ENCODINGS = {
    "cell id out of range": HEADER + "0\t0\n2\t1\n",
    "negative cell id": HEADER + "0\t0\n-1\t1\n",
    "header without n=": "# k=1 algorithm=x\n0\t0\n1\t1\n",
    "header item without =": "# n=2 k=1 junk\n0\t0\n1\t1\n",
    "non-numeric n": "# n=two k=1\n0\t0\n1\t1\n",
    "duplicated cell line": HEADER + "0\t0\n0\t1\n1\t0\n",
    "codeword with a non-binary symbol": HEADER + "0\t0\n1\t2\n",
    "codeword with a base prefix":
        "# n=5 k=3\n0\t000\n1\t0b1\n2\t010\n3\t011\n4\t100\n",
    "codeword with an underscore":
        "# n=5 k=3\n0\t000\n1\t1_0\n2\t001\n3\t011\n4\t100\n",
    "codeword of the wrong width": "# n=2 k=2\n0\t00\n1\t1\n",
    "record without a tab": HEADER + "0\t0\n1 1\n",
    "two cells on one codeword": HEADER + "0\t1\n1\t1\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ENCODINGS))
def test_encoding_file_rejects_malformed_input(case):
    with pytest.raises(ValueError) as info:
        read_encoding(io.StringIO(MALFORMED_ENCODINGS[case]))
    assert "\n" not in str(info.value)


def test_encoding_file_rejects_width_beyond_quadtree():
    """A header wider than any encoding of its cell count is refused before
    the records are read: an unchecked k would size every dummy list."""
    body = "# n=2 k=40 algorithm=x\n0\t" + "0" * 40 + "\n1\t" + "0" * 39 + "1\n"
    with pytest.raises(ValueError, match="k=40 exceeds 2,") as info:
        read_encoding(io.StringIO(body))
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("n", [1, 2, 5, 16, 17, 100, 1025])
def test_hge_width_is_the_widest_readable(n):
    enc = hge_baseline(Grid.regular(n))
    assert enc.k == 2 * quadtree_levels(n)
    buf = io.StringIO()
    write_encoding(buf, enc)
    assert read_encoding(io.StringIO(buf.getvalue())).forward == enc.forward


def test_deepened_hge_encoding_is_refused_by_the_writer():
    """HGE deepens its tree for cells that share a leaf; such a width is
    beyond the file format, and writing fails before any output."""
    grid = Grid([Cell(0, 0.3, 0.6, 0.5), Cell(1, 0.3 + 1e-4, 0.6, 0.5),
                 Cell(2, 0.9, 0.1, 0.5), Cell(3, 0.1, 0.1, 0.5)])
    enc = hge_baseline(grid)
    assert enc.k > 2 * quadtree_levels(grid.n)
    buf = io.StringIO()
    with pytest.raises(ValueError, match=f"k={enc.k} exceeds 2,") as info:
        write_encoding(buf, enc)
    assert "\n" not in str(info.value)
    assert buf.getvalue() == ""


@st.composite
def encodings(draw):
    """Any encoding a writer could emit: n cells on distinct codewords of a
    width between the minimal one and HGE's."""
    n = draw(st.integers(1, 24))
    min_k = max(1, math.ceil(math.log2(n)))
    k = draw(st.integers(min_k, 2 * quadtree_levels(n)))
    forward = tuple(draw(st.permutations(range(1 << k)))[:n])
    algorithm = draw(st.sampled_from(["GO", "MSGO", "SGO", "HGE", "RANDOM"]))
    return GridEncoding(n=n, k=k, forward=forward, algorithm=algorithm)


def loads_or_one_line_error(text):
    try:
        read_encoding(io.StringIO(text))
    except ValueError as exc:
        assert "\n" not in str(exc)


@settings(max_examples=40, deadline=None)
@given(encodings(), st.sampled_from("01*9 \t\n#=-kx\u00e9"),
       st.one_of(st.none(), st.integers(0, 2**32)))
def test_encoding_file_round_trip_and_corruption_properties(enc, char, seed):
    buf = io.StringIO()
    write_encoding(buf, enc, params="depth=3", seed=seed)
    text = buf.getvalue()
    loaded = read_encoding(io.StringIO(text))
    assert (loaded.n, loaded.k, loaded.forward, loaded.algorithm) == (
        enc.n, enc.k, enc.forward, enc.algorithm)
    # every truncation, and every position replaced or deleted once: the
    # file still loads or fails with a one-line ValueError, nothing else
    for end in range(len(text)):
        loads_or_one_line_error(text[:end])
    for at in range(len(text)):
        loads_or_one_line_error(text[:at] + char + text[at + 1:])
        loads_or_one_line_error(text[:at] + text[at + 1:])
