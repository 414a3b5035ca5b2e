"""What a fresh process loads: an alert round imports no part of
`scipy.sparse`, which only the exact 2^n Markov chains use, nor of
`scipy.optimize`, which no round needs, not OpenSSL's `_hashlib`, which
only `bench.child_seed` uses, and not `numpy.ma`.  And
what the wide-grid encoders allocate: no per-cell Python objects."""

import os
import pathlib
import random
import subprocess
import sys
import textwrap
import tracemalloc

import pytest

import hvezones
from hvezones import bench
from hvezones.grid import Grid
from hvezones.optimizers import hge_baseline, sgo

ROUND = textwrap.dedent("""
    import random
    import sys

    import hvezones
    import hvezones.cli
    from hvezones import hve, tokens, wire
    from hvezones.grid import Grid
    from hvezones.optimizers import hge_baseline, sgo

    grid = Grid.regular(16, [0.1 * (i % 9) for i in range(16)])
    zone = [0, 1, 4, 5, 6]
    pk, sk = hve.setup(4, seed=1)
    messages = hve.MessageSpace(pk.group, [1], seed=0)
    rng = random.Random(1)
    for enc in (sgo(grid), hge_baseline(grid)):
        ts = tokens.minimize(zone, enc)
        tks = [wire.load_token(wire.dump_token(hve.gen_token(sk, p, rng)))
               for p in ts.patterns]
        for cell in range(grid.n):
            c = hve.encrypt(pk, format(enc.value(cell), f"0{enc.k}b"),
                            messages.element(1), rng)
            c = wire.load_ciphertext(wire.dump_ciphertext(c))
            hit = any(hve.query(pk.group, c, tk, messages).message == 1
                      for tk in tks)
            assert hit == (cell in zone), cell
    assert "scipy.sparse" not in sys.modules, "an alert round loaded scipy.sparse"
    assert "scipy.optimize" not in sys.modules, "an alert round loaded scipy.optimize"
    assert "_hashlib" not in sys.modules, "an alert round loaded _hashlib"
    assert "numpy.ma" not in sys.modules, "an alert round loaded numpy.ma"

    from hvezones import bench
    assert bench.child_seed(42, "x") == 15081859149362269983

    from hvezones.dynamics import build_q_independent
    q = build_q_independent(Grid.regular(4))
    assert q.states == 16 and "scipy.sparse" in sys.modules
    print("ok")
""")


def test_alert_round_leaves_scipy_sparse_unloaded():
    """Runs in a new interpreter, since this test session has already
    imported `scipy.sparse`; seeds still derive and the exact chain still
    builds afterwards."""
    src = pathlib.Path(hvezones.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", ROUND], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


# tracemalloc peaks of one call on a 225 x 225 grid when each encoding was
# a tuple of Python ints: 8.7 MiB for SGO, which turned its 65,536 padded
# probabilities into float lists, and 4.8 MiB for HGE, which listed and
# set its labels.  Held as arrays they stay well under these bounds.
ENCODER_PEAK_BOUNDS = {sgo: 8.7 / 2, hge_baseline: 4.8 * 3 / 4}


@pytest.mark.parametrize("encoder", list(ENCODER_PEAK_BOUNDS), ids=lambda f: f.__name__)
def test_wide_grid_encoder_peak_memory(encoder):
    n = 225 * 225
    probs = bench.gen_probabilities(n, bench.SigmoidModel(a=0.75, b=10.0),
                                    random.Random("footprint"))
    grid = Grid.regular(n, probs)
    encoder(grid)                 # first-call allocations (caches, imports)
    tracemalloc.start()
    try:
        encoder(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= ENCODER_PEAK_BOUNDS[encoder] * 2**20
