"""What a fresh process loads: an alert round imports no part of
`scipy.sparse`, which only the exact 2^n Markov chains use, and not
OpenSSL's `_hashlib`, which only `bench.child_seed` uses."""

import os
import pathlib
import subprocess
import sys
import textwrap

import hvezones

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
    assert "_hashlib" not in sys.modules, "an alert round loaded _hashlib"

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
