"""Byte-identity gate for the encoders, the minimizer, HVE queries and
the experiment runners' CSV.

Each case hashes the repr of an encoder's `forward` tuple, of a
minimized zone's (patterns, cost, exact), of every (value, pairings,
message) of a fixed query corpus, or the CSV a CLI runner prints, on
fixed seeds.  The pinned digests
were taken before the code they cover was last optimized; a speed-up
must reproduce them exactly, and a change that moves them on purpose has
to say why the new output is more correct.
"""

import hashlib
import random

import pytest

from hvezones import bench
from hvezones.cli import main
from hvezones.grid import Grid
from hvezones.hve import MessageSpace, encrypt, gen_token, query, setup
from hvezones.optimizers import gray_optimizer, hge_baseline, msgo, sgo
from hvezones.tokens import EXACT_SPACE_LIMIT, minimize

MODEL = bench.SigmoidModel(a=0.75, b=10.0)


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def grid_for(n, seed, kind="sigmoid"):
    rng = random.Random(f"golden/{n}/{seed}/{kind}")
    if kind == "uniform":
        probs = [0.5] * n
    elif kind == "zeros":
        probs = [0.0 if rng.random() < 0.3 else rng.random() for _ in range(n)]
    else:
        probs = bench.gen_probabilities(n, MODEL, rng)
    return Grid.regular(n, probs)


ENCODERS = {
    "GO": gray_optimizer,
    "MSGO": lambda g: msgo(g, depth=4, rng_seed=3),
    "SGO": sgo,
    "HGE": hge_baseline,
}

ENCODING_CASES = [
    ("GO", 100, 1, "sigmoid"), ("GO", 256, 2, "zeros"), ("GO", 1024, 3, "sigmoid"),
    ("MSGO", 200, 1, "sigmoid"), ("MSGO", 1000, 2, "zeros"),
    ("MSGO", 1024, 3, "uniform"), ("MSGO", 4096, 4, "sigmoid"),
    ("SGO", 1, 1, "sigmoid"), ("SGO", 100, 1, "sigmoid"), ("SGO", 1000, 2, "zeros"),
    ("SGO", 1024, 3, "uniform"), ("SGO", 4096, 4, "sigmoid"),
    ("SGO", 5000, 4, "zeros"), ("SGO", 50625, 5, "sigmoid"),
    ("HGE", 1, 1, "sigmoid"), ("HGE", 100, 1, "sigmoid"), ("HGE", 1000, 2, "sigmoid"),
    ("HGE", 5000, 4, "sigmoid"), ("HGE", 50625, 5, "sigmoid"),
]

ENCODING_DIGESTS = {
    "GO/100/1/sigmoid": "c735b3282b0560a8d8e8e59de14c4122c81ae22a7323af62ba075f25608edd1d",
    "GO/256/2/zeros": "8a7f8b025587ad58a9921fb3655e831b68dbd120f26aa83ec64bf667eb05ff45",
    "GO/1024/3/sigmoid": "31def5853f033ee3e54a87f611c1724b9d4f21c78a770c2eb9465c72c00fa851",
    "MSGO/200/1/sigmoid": "71feb96043e59294c4eb2b99b8d4b81e419b70abae28dac8f9366b24c834e9c9",
    "MSGO/1000/2/zeros": "6efa2f28e387a32bad70c0c5bafeaeb54d93d73e3efce336fa7b1a7ea70143ef",
    "MSGO/1024/3/uniform": "ab4156fde3ec2b95a3a61994f9cceefb722038e0397173176806c3c03ab978c1",
    "MSGO/4096/4/sigmoid": "ec71d080384a97cd8d37d2ee4d9ef3c36d99e9d4561086c07b00c06087ac2d72",
    "SGO/1/1/sigmoid": "91d6039a01f57163ec02db197e5481ffc170187e262006fa833b26f0cc064633",
    "SGO/100/1/sigmoid": "6d638d7375c7efd070ba0050b9c3035f4b3d73afe0cab7226347006756f9d5a6",
    "SGO/1000/2/zeros": "e448a90eb0a01ee9a86f9e96337de402b74d74953ac9100fcf4571c4e05f6387",
    "SGO/1024/3/uniform": "53c5de3cc68f29064fdeef41dcde4c12f6e65cc1a9d1c54ffefeef597875b668",
    "SGO/4096/4/sigmoid": "a8644714990f580fd82b89c71bb0fa5e702a3cec860fe0f20d443d4aa5cd85c7",
    "SGO/5000/4/zeros": "728982d2b127966d85b8fc1d4f71dccaab2bf4f6254ea81ba68119404c039849",
    "SGO/50625/5/sigmoid": "87eb0b673dd2d4af6fbbdd4f9dbc193a2445d1ddaec1d4f1af213ca6869e0997",
    "HGE/1/1/sigmoid": "28cb03b06c288e88c6a880eeba293bf9c9bb9fa586128586459a486a511f832f",
    "HGE/100/1/sigmoid": "0563a65118a830c941a2b62d44800790fc91953c169cdf66c7c2d8f2ff1cebe7",
    "HGE/1000/2/sigmoid": "3269b837638034a532df61e619a0f6d566100c3b8dba24cda51b73b846a40bc3",
    "HGE/5000/4/sigmoid": "d8b00f7665786477df55e7117ada0f3dc9797e921cb92e8e592737906836eb6c",
    "HGE/50625/5/sigmoid": "a713af9ddaacbc8716526f2058ddb8b9656fde6cab2921e1091d4ed0858c2479",
}

# (encoder, n, seed, zone fraction, dummy cover); n=100 and n=256 take the
# exact path, n=5000 (k >= 13) the greedy one
MINIMIZE_CASES = [
    ("SGO", 100, 5, 0.3, True), ("SGO", 100, 5, 0.3, False),
    ("HGE", 100, 5, 0.3, True), ("HGE", 100, 5, 0.3, False),
    ("MSGO", 256, 6, 0.1, False), ("HGE", 256, 6, 0.1, False),
    ("MSGO", 256, 6, 0.6, False), ("HGE", 256, 6, 0.6, False),
    ("SGO", 5000, 7, 0.05, True), ("SGO", 5000, 7, 0.05, False),
    ("HGE", 5000, 7, 0.05, True), ("HGE", 5000, 7, 0.05, False),
    ("SGO", 5000, 7, 0.3, False), ("HGE", 5000, 7, 0.3, False),
]

MINIMIZE_DIGESTS = {
    "SGO/100/5/0.3/True": "415ed107d53799693b66c29ccdbc0e52c649ae346c0f14d32f3fae10591855b9",
    "SGO/100/5/0.3/False": "415ed107d53799693b66c29ccdbc0e52c649ae346c0f14d32f3fae10591855b9",
    "HGE/100/5/0.3/True": "a5a4d44d2690a16abc3cf1781f5c24dd7802961a3b9f1dddd4f87051f20d14a8",
    "HGE/100/5/0.3/False": "46c4b506a7ecd5fc98eb061c6f2145c08f96ad7109e53c33f31acbc77a33b5ff",
    "MSGO/256/6/0.1/False": "2d451e245b0d5eac86cbff1e3ee5d0dbbea1b56abbdd431f426d3b35c9553be1",
    "HGE/256/6/0.1/False": "48df98506f1e6c13e92f10917a302f0428043cdc853d52d5facab53345ce31e9",
    "MSGO/256/6/0.6/False": "55f470747b171928a130bb52c95e06074ef4466bed6b50f7f076835ca841eb62",
    "HGE/256/6/0.6/False": "18eaf89db6c6946caba2e70bf7e0be4b2d6b044b750c45bc1f150621ba17a36a",
    "SGO/5000/7/0.05/True": "c6833f73e787276ecbb93ebc8682a9eee8652e04873ad00829580e86259a0f50",
    "SGO/5000/7/0.05/False": "ab21d851eca4771b66d29beb1dac223cabdf8b4c9382c55c6e4e48cbe257d88f",
    "HGE/5000/7/0.05/True": "7b10d8d6006269626eed39a751945c15e6eb82ac601951a8fe9a6848c2c32954",
    "HGE/5000/7/0.05/False": "eea469c907a495ae575ff51c2dfc52f3fcfd6389ffe94bf4de25b71182a54d01",
    "SGO/5000/7/0.3/False": "4612c0a090c697f92b549b8cf1a652a2f9918d72bc1c1665e72f1bf4c8d087eb",
    "HGE/5000/7/0.3/False": "8e982eee599bd336a4b28316d27b3e5e3ec22c40488c78b9c766267a1f8cec5b",
}


@pytest.mark.parametrize("algorithm,n,seed,kind", ENCODING_CASES)
def test_encoding_digest(algorithm, n, seed, kind):
    enc = ENCODERS[algorithm](grid_for(n, seed, kind))
    key = f"{algorithm}/{n}/{seed}/{kind}"
    assert digest(enc.forward) == ENCODING_DIGESTS[key]


@pytest.mark.parametrize("algorithm,n,seed,fraction,dummy", MINIMIZE_CASES)
def test_minimize_digest(algorithm, n, seed, fraction, dummy):
    grid = grid_for(n, seed)
    enc = ENCODERS[algorithm](grid)
    zone = bench.sample_zone(grid.probabilities(), fraction,
                             random.Random(f"golden/zone/{n}/{seed}"))
    ts = minimize(zone, enc, allow_dummy_cover=dummy)
    assert ((1 << enc.k) > EXACT_SPACE_LIMIT) == (n == 5000)
    key = f"{algorithm}/{n}/{seed}/{fraction}/{dummy}"
    assert digest((ts.patterns, ts.cost, ts.exact)) == MINIMIZE_DIGESTS[key]


# (width, seed) of each HVE scheme in the query corpus; every ciphertext
# meets all-star, sparse, dense and star-free tokens, about half of them
# with flipped bits so that non-matches occur
QUERY_SCHEMES = ((1, 1), (3, 2), (6, 3), (10, 4), (16, 5))
QUERY_DIGEST = "f0cbb3f44e3016b1fc53964523e605b93dc92c63aa70fa843113f2108b6ad3d9"


def test_query_digest():
    out = []
    for width, seed in QUERY_SCHEMES:
        pk, sk = setup(width, seed=seed)
        messages = MessageSpace(pk.group, [3, 8], seed=seed)
        rng = random.Random(f"golden/query/{width}/{seed}")
        for _ in range(30):
            attribute = "".join(rng.choice("01") for _ in range(width))
            c = encrypt(pk, attribute, messages.element(rng.choice((3, 8))), rng)
            for star in (0.0, 0.3, 0.7, 1.0):
                flip = rng.random() < 0.5
                pattern = "".join(
                    "*" if rng.random() < star
                    else (str(1 - int(a)) if flip and rng.random() < 0.3 else a)
                    for a in attribute)
                r = query(pk.group, c, gen_token(sk, pattern, rng), messages)
                out.append((r.value, r.pairings, r.message))
    assert sum(m is not None for _, _, m in out) == 463
    assert digest(out) == QUERY_DIGEST


# CLI runs whose stdout is hashed; timing's wall_ms column is dropped
# because it carries real measurements
CSV_DIGESTS = {
    "benchmark --n 256 --algorithm GO --trials 3 --seed 42":
        "968ab88eacd0bb9318073080cc01a0d63c47eb4787627aefed9ee09fb862706b",
    "benchmark --n 1024 --algorithm MSGO --depth 4 --trials 2 --seed 42 "
    "--fractions 0.3,0.6":
        "1606ec2eea023eb65899e8c55ed9e9fb80abed7d4c8374e1ef19675eebe61707",
    "benchmark --n 200 --algorithm RANDOM --trials 3 --seed 7 --noise 0.2 "
    "--uniform-zones --dummy-cover":
        "ac2a5714e0a0a66a1203fd7afdd695abe73e4c019842428df583db00d7f7290d",
    "depth-sweep --n 100 --trials 3 --seed 42":
        "315cfe6859e74daf2a63343ec35ed33c25af32b596283b3c5a02cabc65c69c4b",
    "dynamics --n 64 --trials 2 --seed 5 --walks 2049 --algorithm SGO "
    "--dyn-zones 10":
        "5c33df4d783714bbe71ca4b6427563e34454bf7a46d32c549f34efe3232cbfc7",
    "timing --n 300 --algorithm HGE --trials 3 --seed 4":
        "90c196a17f61824994e1a2fc719377a7063827f36d8d497e630ad91e3ccc0077",
}


@pytest.mark.parametrize("command", CSV_DIGESTS)
def test_csv_digest(command, capsys):
    assert main(command.split()) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines()]
    wall = rows[0].index("wall_ms")
    if command.startswith("timing"):
        rows = [row[:wall] + row[wall + 1:] for row in rows]
    text = "".join(",".join(row) + "\n" for row in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == CSV_DIGESTS[command]
