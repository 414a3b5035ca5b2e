"""Grid and encoding types plus the encoding file format."""

import io

import pytest

from hvezones.grid import Cell, Grid, GridEncoding, read_encoding, write_encoding


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
    assert str(enc.codeword(1)) == "10"


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
    "codeword with a base prefix": "# n=2 k=3\n0\t000\n1\t0b1\n",
    "codeword with an underscore": "# n=2 k=3\n0\t000\n1\t1_0\n",
    "codeword of the wrong width": "# n=2 k=2\n0\t00\n1\t1\n",
    "record without a tab": HEADER + "0\t0\n1 1\n",
    "two cells on one codeword": HEADER + "0\t1\n1\t1\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ENCODINGS))
def test_encoding_file_rejects_malformed_input(case):
    with pytest.raises(ValueError) as info:
        read_encoding(io.StringIO(MALFORMED_ENCODINGS[case]))
    assert "\n" not in str(info.value)
