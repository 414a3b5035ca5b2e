"""Grid and encoding types plus the encoding file format."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvezones.grid import (Grid, GridEncoding, min_width, quadtree_levels,
                           read_encoding, write_encoding)
from hvezones.optimizers import hge_baseline


def test_grid_validation():
    with pytest.raises(ValueError, match="^grid needs at least one cell$"):
        Grid([], [], [])
    with pytest.raises(ValueError, match="one length"):
        Grid([0.5, 0.5], [0.5], [0.5, 0.5])
    with pytest.raises(ValueError, match="one length"):
        Grid([0.5], [0.5], [0.5, 0.5])
    with pytest.raises(ValueError, match="one length"):
        Grid([[0.5]], [[0.5]], [[0.5]])


@pytest.mark.parametrize("bad,shown", [(math.nan, "nan"), (1.5, "1.5"),
                                       (-0.1, "-0.1")])
def test_grid_refuses_probability_outside_unit_interval(bad, shown):
    """The first offending cell is named, whatever follows it."""
    probs = [0.5, 1.0, bad, 0.0, 2.0, math.nan]
    xs = [0.5] * len(probs)
    with pytest.raises(ValueError,
                       match=rf"^cell 2 probability {shown} outside \[0, 1\]$"):
        Grid(xs, xs, probs)
    with pytest.raises(ValueError, match="^cell 2 probability"):
        Grid.regular(len(probs), probs)
    with pytest.raises(ValueError, match="^cell 2 probability"):
        Grid.regular(len(probs)).with_probabilities(probs)


def test_grid_arrays_are_read_only():
    xs = np.array([0.1, 0.9])
    g = Grid(xs, [0.5, 0.5], [0.2, 0.8])
    for array in (g.x, g.y, g.p):
        assert array.dtype == np.float64 and not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.3
    xs[0] = 0.3                      # the caller's array is copied, not kept
    assert g.x.tolist() == [0.1, 0.9]
    assert g.probabilities() == [0.2, 0.8]


def test_regular_grid_geometry():
    g = Grid.regular(4)
    assert g.n == 4 and g.k == 2
    # row-major from the top-left: cell 0 is NW, cell 3 SE
    assert g.x[0] < g.x[1]
    assert g.y[0] > g.y[2]
    assert ((0 < g.x) & (g.x < 1) & (0 < g.y) & (g.y < 1)).all()
    assert g.probabilities() == [0.5] * 4


@pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 1000, 50625])
def test_regular_grid_coordinates_equal_the_scalar_formula(n):
    cols = math.ceil(math.sqrt(n))
    rows = math.ceil(n / cols)
    xs, ys = [], []
    for i in range(n):
        r, c = divmod(i, cols)
        xs.append((c + 0.5) / cols)
        ys.append(1.0 - (r + 0.5) / rows)
    g = Grid.regular(n)
    assert g.x.tolist() == xs and g.y.tolist() == ys   # bit for bit


def test_grid_k_values():
    assert Grid.regular(1).k == 1
    assert Grid.regular(2).k == 1
    assert Grid.regular(5).k == 3
    assert Grid.regular(1024).k == 10


def test_with_probabilities_keeps_geometry():
    g = Grid.regular(6, [0.1] * 6)
    h = g.with_probabilities([0.2] * 6)
    assert h.x is g.x and h.y is g.y
    assert h.probabilities() == [0.2] * 6
    assert g.probabilities() == [0.1] * 6
    for probs in ([0.2] * 5, [0.2] * 7):
        with pytest.raises(ValueError, match="one length"):
            g.with_probabilities(probs)


def test_encoding_invariants():
    enc = GridEncoding(n=3, k=2, forward=(0, 2, 3), algorithm="x")
    assert enc.space - enc.n == 1
    assert enc.dummies() == [1]
    assert enc.cell_at(2) == 1
    assert enc.cell_at(1) is None


def test_encoding_rejects_duplicates_and_bad_width():
    with pytest.raises(ValueError, match="^codeword 0 assigned twice$"):
        GridEncoding(n=2, k=1, forward=(0, 0), algorithm="x")
    with pytest.raises(ValueError, match="^codeword 5 assigned twice$"):
        GridEncoding(n=5, k=3, forward=(1, 5, 2, 5, 1), algorithm="x")
    with pytest.raises(ValueError, match="width too small"):
        GridEncoding(n=5, k=2, forward=(0, 1, 2, 3, 4), algorithm="x")
    with pytest.raises(ValueError, match="^codeword 2 out of range for width 1$"):
        GridEncoding(n=2, k=1, forward=(0, 2), algorithm="x")
    with pytest.raises(ValueError, match="^codeword -1 out of range for width 2$"):
        GridEncoding(n=3, k=2, forward=(0, -1, 3), algorithm="x")


def test_encoding_builds_its_reverse_map_on_first_lookup():
    """Construction does not build the sorted codewords `cell_at` reads;
    the first `cell_at` call sorts, and no answer, equality or hash
    changes."""
    enc = GridEncoding(n=5, k=3, forward=(4, 0, 7, 2, 1), algorithm="GO")
    twin = GridEncoding(n=5, k=3, forward=np.array([4, 0, 7, 2, 1]), algorithm="GO")
    lazy = {"_lookup"}
    assert not lazy & (enc.__dict__.keys() | twin.__dict__.keys())
    identity = (enc == twin, hash(enc) == hash(twin), hash(enc))
    assert identity[:2] == (True, True)
    cells = [1, 4, 3, None, 0, None, None, 2]
    assert enc.dummies() == [3, 5, 6]
    assert not lazy & enc.__dict__.keys()
    assert [enc.cell_at(v) for v in range(8)] == cells
    assert [twin.cell_at(v) for v in range(8)] == cells
    assert twin.dummies() == [3, 5, 6]
    assert "_lookup" in enc.__dict__ and "_lookup" in twin.__dict__
    assert enc.codewords.tolist() == twin.codewords.tolist() == [4, 0, 7, 2, 1]
    assert (enc == twin, hash(enc) == hash(twin), hash(enc)) == identity


def test_encoding_holds_one_read_only_codeword_array():
    """A read-only int64 array is shared, anything else is copied into one;
    the fields cannot be reassigned."""
    shared = np.array([3, 1, 2], dtype=np.int64)
    shared.setflags(write=False)
    assert GridEncoding(n=3, k=2, forward=shared).codewords is shared
    source = np.array([3, 1, 2], dtype=np.int32)
    enc = GridEncoding(n=3, k=2, forward=source)
    source[0] = 0
    assert enc.codewords.dtype == np.int64 and not enc.codewords.flags.writeable
    assert enc.codewords.tolist() == [3, 1, 2] and type(enc.value(0)) is int
    for field in ("n", "k", "codewords", "algorithm"):
        with pytest.raises(AttributeError):
            setattr(enc, field, None)
        with pytest.raises(AttributeError):
            delattr(enc, field)


def test_encoding_refuses_widths_beyond_int64():
    """2^k and every codeword fit in int64, so widths stop at 62; a
    codeword too large for int64 is out of range like any other."""
    top = (1 << 62) - 1
    enc = GridEncoding(n=2, k=62, forward=(top, 0))
    assert (enc.value(0), enc.cell_at(top), enc.cell_at(top - 1)) == (top, 0, None)
    with pytest.raises(ValueError, match="^codeword width k=63 exceeds 62$"):
        GridEncoding(n=2, k=63, forward=(0, 1))
    for bad in (1 << 62, 1 << 63, 1 << 64, -(1 << 64)):
        with pytest.raises(ValueError, match=f"^codeword {bad} out of range for width 62$"):
            GridEncoding(n=3, k=62, forward=(0, bad, 1 << 70))


@st.composite
def codeword_maps(draw):
    """(k, distinct codewords) for any k up to 12, as a tuple, a list or an
    integer array."""
    k = draw(st.integers(1, 12))
    forward = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1,
                            max_size=min(1 << k, 300), unique=True))
    kind = draw(st.sampled_from([tuple, list, np.int32, np.int64]))
    return k, forward, kind(forward) if kind in (tuple, list) else np.array(forward, kind)


@settings(max_examples=150, deadline=None)
@given(codeword_maps(), st.sampled_from(["GO", "HGE"]))
def test_array_encoding_matches_dict_reference(drawn, algorithm):
    """Every lookup agrees with a tuple and a dict built from the same map,
    and equality and hashing go by (n, k, codewords, algorithm)."""
    k, forward, given_as = drawn
    n = len(forward)
    enc = GridEncoding(n=n, k=k, forward=given_as, algorithm=algorithm)
    reverse = dict(zip(forward, range(n)))
    assert [enc.value(c) for c in range(n)] == forward
    assert all(type(enc.value(c)) is int for c in range(n))
    probes = list(range(-1, (1 << k) + 1)) + [1 << 70, -(1 << 70)]
    assert [enc.cell_at(v) for v in probes] == [reverse.get(v) for v in probes]
    assert enc.dummies() == [v for v in range(1 << k) if v not in reverse]
    assert enc.codewords.tolist() == forward
    twin = GridEncoding(n=n, k=k, forward=tuple(forward), algorithm=algorithm)
    assert enc == twin and hash(enc) == hash(twin)
    assert enc != GridEncoding(n=n, k=k + 1, forward=forward, algorithm=algorithm)
    assert enc != GridEncoding(n=n, k=k, forward=forward, algorithm="SGO")
    if n > 1:
        swapped = [forward[1], forward[0]] + forward[2:]
        assert enc != GridEncoding(n=n, k=k, forward=swapped, algorithm=algorithm)


def test_wide_encoding_never_allocates_its_codeword_space():
    """HGE may deepen to k = 48; a k = 40 encoding constructs and answers
    lookups in a few kilobytes, not 2^40 of anything."""
    tracemalloc.start()
    try:
        enc = GridEncoding(n=3, k=40, forward=(0, 1 << 39, (1 << 40) - 1))
        assert [enc.cell_at(v) for v in (0, 1, 1 << 39, (1 << 40) - 1)] == [0, None, 1, 2]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_minimal_width_is_ceil_log2():
    assert [Grid.regular(n).k for n in (1, 2, 3, 4, 5, 8, 9)] == [1, 1, 2, 2, 3, 3, 4]
    for n in range(2, 5000):
        assert min_width(n) == math.ceil(math.log2(n))


def test_encoding_file_round_trip():
    enc = GridEncoding(n=5, k=3, forward=(4, 0, 7, 2, 1), algorithm="GO")
    buf = io.StringIO()
    write_encoding(buf, enc, params="depth=3", seed=9)
    buf.seek(0)
    loaded = read_encoding(buf)
    assert loaded.codewords.tolist() == enc.codewords.tolist()
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
    assert read_encoding(io.StringIO(buf.getvalue())).codewords.tolist() == enc.codewords.tolist()


def test_deepened_hge_encoding_is_refused_by_the_writer():
    """HGE deepens its tree for cells that share a leaf; such a width is
    beyond the file format, and writing fails before any output."""
    grid = Grid([0.3, 0.3 + 1e-4, 0.9, 0.1], [0.6, 0.6, 0.1, 0.1], [0.5] * 4)
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
    assert (loaded.n, loaded.k, loaded.codewords.tolist(), loaded.algorithm) == (
        enc.n, enc.k, enc.codewords.tolist(), enc.algorithm)
    # every truncation, and every position replaced or deleted once: the
    # file still loads or fails with a one-line ValueError, nothing else
    for end in range(len(text)):
        loads_or_one_line_error(text[:end])
    for at in range(len(text)):
        loads_or_one_line_error(text[:at] + char + text[at + 1:])
        loads_or_one_line_error(text[:at] + text[at + 1:])
