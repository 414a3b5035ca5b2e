"""Byte-identity gate for the encoders, the minimizer, HVE queries, wire
blobs and the experiment runners' CSV.

Each case hashes the repr of an encoder's codewords as a tuple, of a
minimized zone's (sorted patterns, cost, exact) and of its patterns in
issue order, of every (value's exponent pair, pairings, message) of a
fixed query corpus, of the wire blobs of a fixed key, ciphertext and
token corpus,
or the CSV a CLI runner prints, on fixed seeds.  The pinned digests
were taken before the code they cover was last optimized; a speed-up
must reproduce them exactly, and a change that moves them on purpose has
to say why the new output is more correct.
"""

import hashlib
import random
from collections import Counter

import pytest

from hvezones import bench, tokens, wire
from hvezones.cli import main
from hvezones.grid import Grid
from hvezones.hve import (Ciphertext, MessageSpace, PublicKey, encrypt, gen_token,
                          query, setup)
from hvezones.optimizers import (OpCounter, gray_optimizer, hge_baseline,
                                 msgo, sgo)
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

# the cases above EXACT_SPACE_LIMIT allowed codewords (minterms plus
# don't-cares), which take the greedy path; every other case takes the
# exact one
GREEDY_CASES = [
    ("HGE", 5000, 7, 0.05, True), ("HGE", 5000, 7, 0.15, True),
    ("HGE", 9000, 7, 0.05, True), ("SGO", 9000, 7, 0.15, True),
    ("SGO", 9000, 8, 0.02, True),
]

# the exact-path cases whose 2^k space the allowed codewords fill densely
# enough (`tokens.is_dense`) for the truth-table prime generator; the other
# two exact-path cases (k = 13 and 14, 250 codewords) take set-based QM
DENSE_CASES = [
    ("SGO", 100, 5, 0.3, True), ("SGO", 100, 5, 0.3, False),
    ("HGE", 100, 5, 0.3, True), ("HGE", 100, 5, 0.3, False),
    ("MSGO", 256, 6, 0.1, False), ("HGE", 256, 6, 0.1, False),
    ("MSGO", 256, 6, 0.6, False), ("HGE", 256, 6, 0.6, False),
    ("SGO", 5000, 7, 0.05, True),
    ("SGO", 5000, 7, 0.3, False), ("HGE", 5000, 7, 0.3, False),
]

# (encoder, n, seed, zone fraction, dummy cover)
MINIMIZE_CASES = [
    ("SGO", 100, 5, 0.3, True), ("SGO", 100, 5, 0.3, False),
    ("HGE", 100, 5, 0.3, True), ("HGE", 100, 5, 0.3, False),
    ("MSGO", 256, 6, 0.1, False), ("HGE", 256, 6, 0.1, False),
    ("MSGO", 256, 6, 0.6, False), ("HGE", 256, 6, 0.6, False),
    ("SGO", 5000, 7, 0.05, True), ("SGO", 5000, 7, 0.05, False),
    ("HGE", 5000, 7, 0.05, False),
    ("SGO", 5000, 7, 0.3, False), ("HGE", 5000, 7, 0.3, False),
] + GREEDY_CASES

MINIMIZE_DIGESTS = {
    "SGO/100/5/0.3/True": "415ed107d53799693b66c29ccdbc0e52c649ae346c0f14d32f3fae10591855b9",
    "SGO/100/5/0.3/False": "415ed107d53799693b66c29ccdbc0e52c649ae346c0f14d32f3fae10591855b9",
    "HGE/100/5/0.3/True": "a5a4d44d2690a16abc3cf1781f5c24dd7802961a3b9f1dddd4f87051f20d14a8",
    "HGE/100/5/0.3/False": "46c4b506a7ecd5fc98eb061c6f2145c08f96ad7109e53c33f31acbc77a33b5ff",
    "MSGO/256/6/0.1/False": "2d451e245b0d5eac86cbff1e3ee5d0dbbea1b56abbdd431f426d3b35c9553be1",
    "HGE/256/6/0.1/False": "48df98506f1e6c13e92f10917a302f0428043cdc853d52d5facab53345ce31e9",
    "MSGO/256/6/0.6/False": "55f470747b171928a130bb52c95e06074ef4466bed6b50f7f076835ca841eb62",
    "HGE/256/6/0.6/False": "f10f2b81596eea77a7382924be59a36cf8f7f0c2bd03fb8486053f1abe586d08",
    "SGO/5000/7/0.05/True": "cf9bda12f642d75aa9ac60381c6416dfcf30c482ce5975154a6d15249b129736",
    "SGO/5000/7/0.05/False": "8e7784479f9aa3c128f322660beb82f60e06f3f5f7bac9d09697b98917c3d9c7",
    "HGE/5000/7/0.05/True": "7b10d8d6006269626eed39a751945c15e6eb82ac601951a8fe9a6848c2c32954",
    "HGE/5000/7/0.15/True": "7ce74efc2f3f29d0847d79e4a5b7521d71509349e61a9c757f3e849f20aad121",
    "HGE/9000/7/0.05/True": "5c9b1f0a3fd01e5aa73fbc6d79478bd5dc4aab44b6f40c8466df6ce02578ba56",
    "SGO/9000/7/0.15/True": "26212d56d26af9eedc0277d19c2cc34b5e2b6cfae69d12a0c3f7d3d0d78885fd",
    "SGO/9000/8/0.02/True": "01235261cdba8a554a47430ab0d956056732fa78f6b50930372528b6e1538c96",
    "HGE/5000/7/0.05/False": "04a7d1a69aa1e61e089738dfc6fe4218675de1d3cced3b930333507c485021d2",
    "SGO/5000/7/0.3/False": "347d0737ddc11a912026aa64886b489a166fb153adec5c9ece1a4d36bde6dad0",
    "HGE/5000/7/0.3/False": "be00049f03e5dd284b78034f107956744c39fa7cb88088c7cd0504e72f9d9889",
}

# the same covers' patterns in the order they are issued
ISSUE_ORDER_DIGESTS = {
    "SGO/100/5/0.3/True": "95b53653faeb5f216057282035f684db93927bb4b0d6c7eedbcaf2a1c63659f2",
    "SGO/100/5/0.3/False": "95b53653faeb5f216057282035f684db93927bb4b0d6c7eedbcaf2a1c63659f2",
    "HGE/100/5/0.3/True": "742c8df5729cb636912dd690e18365468717d28d2c111821d38996610c368aa6",
    "HGE/100/5/0.3/False": "52c07ffffba31ecbf9dc9269a10f5d9cbca4dd3f229701ad64100727b8bffeed",
    "MSGO/256/6/0.1/False": "1e33c1f5efd415649571dcb6cd81a1d79e8c62dabfe81690e58feec7e72e6973",
    "HGE/256/6/0.1/False": "a60d3e6a161970b7827ba1708a2a7d9e8931d641f58e0abe85d5efacaa45e40f",
    "MSGO/256/6/0.6/False": "0e3fb94cdc7bed4b34f4c85bfb0cfbe203e85df270b6e0117da8bd44f1e9dafb",
    "HGE/256/6/0.6/False": "2d2049e3e4f544e60d0ee18ed3d664daf1a127646154edd30fa69609545c5074",
    "SGO/5000/7/0.05/True": "b63310036cf988a370d6a8a75adc10c2683f0d3e03adba80d88f5ab996ab9f8d",
    "SGO/5000/7/0.05/False": "e33530eb73dac6fca42d16ef69dede50cdfb5ae6e52d1c859a8ea50d5a0fbcd0",
    "HGE/5000/7/0.05/True": "8a7013a84603e40cf427d33aa15ca609c426164ad970f01e27a02b518c4d3c50",
    "HGE/5000/7/0.15/True": "ab09f58c5a7c7c156bab7fe0c1962b23fb24143e44a3f130210cb3249cf34a65",
    "HGE/9000/7/0.05/True": "33b65b2dfe1af99ba514aaf15e10f34f184686f284ad24e54149227edb6c0571",
    "SGO/9000/7/0.15/True": "3cd33377708a6f6fa244c1523cf8ab287c91202c934ecc9d757797936d754ab9",
    "SGO/9000/8/0.02/True": "e54f19e75a9cc83cdc12deb1fd9156b356b2de9cb3b0aaa0b75d89887fd13aa4",
    "HGE/5000/7/0.05/False": "2fa44bb0960432e393531a5025608d1d025b6f63d787116f92c73fcc1615c5f5",
    "SGO/5000/7/0.3/False": "fdc1c96c6e9a47e5b410ece4f8efbed6851a6795cf4c0f8df055953bf7c4ffb0",
    "HGE/5000/7/0.3/False": "42fc33530ce8afb831a8a9647be52d92dc13a454faffbb24ffebac6173517de1",
}


@pytest.mark.parametrize("algorithm,n,seed,kind", ENCODING_CASES)
def test_encoding_digest(algorithm, n, seed, kind):
    enc = ENCODERS[algorithm](grid_for(n, seed, kind))
    key = f"{algorithm}/{n}/{seed}/{kind}"
    assert digest(tuple(enc.codewords.tolist())) == ENCODING_DIGESTS[key]


def shallow_grids():
    """Small and degenerate grids: one cell (positive and zero), all ties,
    many zero-probability cells, dummy-padded sizes, and three tied
    probability levels."""
    rng = random.Random(21)
    yield Grid.regular(1, [0.7])
    yield Grid.regular(1, [0.0])
    for n in (16, 64, 100):
        yield Grid.regular(n, [0.5] * n)
    for n in (32, 100, 256):
        yield Grid.regular(n, [0.0 if rng.random() < 0.4 else rng.random()
                               for _ in range(n)])
    for n in (3, 5, 33, 100, 1000):
        yield Grid.regular(n, [rng.random() for _ in range(n)])
    yield Grid.regular(200, [rng.choice((0.0, 0.25, 0.5)) for _ in range(200)])


# shallow GO and MSGO passes, whose first stage the cases above never run
# alone; each digest hashes (codewords, multiplications) over shallow_grids()
SHALLOW_RUNS = {
    "GO/1": lambda g, c: gray_optimizer(g, depth=1, counter=c),
    "GO/3": lambda g, c: gray_optimizer(g, depth=min(3, g.k), counter=c),
    "MSGO/1": lambda g, c: msgo(g, depth=1, rng_seed=3, counter=c),
    "MSGO/2": lambda g, c: msgo(g, depth=2, rng_seed=3, counter=c),
}

SHALLOW_DIGESTS = {
    "GO/1": "3f981722fc2017ca4a092536c242322205ac143072a45c7e685295193e7deaf7",
    "GO/3": "f121fd03bc533b84cd77405729fdb576586f731c85ae7f6e4c13d14f3c4713e8",
    "MSGO/1": "45e82e3f49938fd7f852a4c4202636a0937418c28917b3a6296c2ed47f6ab63a",
    "MSGO/2": "9747cbdc33a3c3ea3840e1019d818c735c43f301e0b373ce982628a96b6e3733",
}


@pytest.mark.parametrize("run", SHALLOW_RUNS)
def test_shallow_pass_digest(run):
    out = []
    for grid in shallow_grids():
        counter = OpCounter()
        out.append((tuple(SHALLOW_RUNS[run](grid, counter).codewords.tolist()),
                    counter.multiplications))
    assert digest(out) == SHALLOW_DIGESTS[run]


def counting(calls: Counter, name: str, fn):
    """`fn`, tallying its calls in `calls[name]`."""
    def counted(*args):
        calls[name] += 1
        return fn(*args)
    return counted


def test_each_prime_generator_serves_a_golden_case():
    """Both prime generators produce pinned covers: some exact-path cases
    take the truth table, some set-based QM."""
    exact = [case for case in MINIMIZE_CASES if case not in GREEDY_CASES]
    assert set(DENSE_CASES) < set(exact) and DENSE_CASES


@pytest.mark.parametrize("algorithm,n,seed,fraction,dummy", MINIMIZE_CASES)
def test_minimize_digest(algorithm, n, seed, fraction, dummy, monkeypatch):
    grid = grid_for(n, seed)
    enc = ENCODERS[algorithm](grid)
    zone = bench.sample_zone(grid.probabilities(), fraction,
                             random.Random(f"golden/zone/{n}/{seed}"))
    calls = Counter()
    for name in ("_grow_prime_cube", "_truth_table_primes", "_qm_primes"):
        monkeypatch.setattr(tokens, name, counting(calls, name, getattr(tokens, name)))
    ts = minimize(zone, enc, allow_dummy_cover=dummy)
    key = f"{algorithm}/{n}/{seed}/{fraction}/{dummy}"
    case = (algorithm, n, seed, fraction, dummy)
    allowed = len(zone) + (len(enc.dummies()) if dummy else 0)
    assert (bool(calls["_grow_prime_cube"]) == (allowed > EXACT_SPACE_LIMIT)
            == (case in GREEDY_CASES))
    assert bool(calls["_truth_table_primes"]) == (case in DENSE_CASES)
    assert bool(calls["_qm_primes"]) == (case not in DENSE_CASES + GREEDY_CASES)
    assert digest((tuple(sorted(ts.patterns)), ts.cost, ts.exact)) == MINIMIZE_DIGESTS[key]
    assert digest(ts.patterns) == ISSUE_ORDER_DIGESTS[key]


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
                out.append((pk.group.split(r.value), r.pairings, r.message))
    assert sum(m is not None for _, _, m in out) == 463
    assert digest(out) == QUERY_DIGEST


# (width, seed) of each scheme in the wire corpus; every scheme's all-star
# token declares an empty J, whose zero count is a zero-length field
WIRE_SCHEMES = ((1, 11), (2, 12), (8, 13), (10, 14), (16, 15))
WIRE_DIGEST = "d9966b5ced9e8790675c2830b7b930a32e7875ba61c49667a11bedc981a82806"
# the same corpus in version 1, which wrote each element as its exponent
# pair (two integer fields) where version 2 writes one CRT residue
WIRE_V1_DIGEST = "ba31e4d31e8478d9a0d6dbed575ccf93de03c235de4129d5270f00062f0387df"


def pack(version, tag, fields):
    """A blob of integer and string fields, encoded independently of `wire`."""
    out = [bytes((version, tag))]
    for value in fields:
        raw = (value.encode("ascii") if isinstance(value, str)
               else value.to_bytes((value.bit_length() + 7) // 8, "big"))
        out += [len(raw).to_bytes(4, "big"), raw]
    return b"".join(out)


def wire_v1(group, obj):
    """The version-1 blob of a public key, ciphertext or token."""
    def ints(*elements):
        return [e for x in elements for e in group.split(x)]

    if isinstance(obj, PublicKey):
        fields = [group.p, group.q, obj.width, *ints(obj.g_q, obj.v_blinded, obj.a_pair)]
        for uhw in zip(obj.u_blinded, obj.h_blinded, obj.w_blinded):
            fields += ints(*uhw)
        return pack(1, wire.TAG_PUBLIC_KEY, fields)
    if isinstance(obj, Ciphertext):
        fields = [obj.width, *ints(obj.c_prime, obj.c0)]
        for c12 in zip(obj.c1, obj.c2):
            fields += ints(*c12)
        return pack(1, wire.TAG_CIPHERTEXT, fields)
    fields = [obj.pattern, *ints(obj.k0), len(obj.positions)]
    for i, k1, k2 in zip(obj.positions, obj.k1, obj.k2):
        fields += [i, *ints(k1, k2)]
    return pack(1, wire.TAG_TOKEN, fields)


def test_wire_digest():
    blobs, v1_blobs = [], []

    def add(dump, group, obj):
        blobs.append(dump(obj))
        v1_blobs.append(wire_v1(group, obj))
        return obj

    for width, seed in WIRE_SCHEMES:
        pk, sk = setup(width, seed=seed)
        assert pk.group.split(pk.g_q) == (0, 1)
        add(wire.dump_public_key, pk.group, pk)
        messages = MessageSpace(pk.group, [1, 2], seed=seed)
        rng = random.Random(f"golden/wire/{width}/{seed}")
        for attribute in ("0" * width, "1" * width,
                          "".join(rng.choice("01") for _ in range(width))):
            c = encrypt(pk, attribute, messages.element(rng.choice((1, 2))), rng)
            add(wire.dump_ciphertext, pk.group, c)
        one = rng.randrange(width)
        all_star = add(wire.dump_token, pk.group, gen_token(sk, "*" * width, rng))
        # pattern, K_0, then the count |J| = 0 as a zero-length field
        assert blobs[-1] == pack(wire.VERSION, wire.TAG_TOKEN, ["*" * width, all_star.k0, 0])
        assert blobs[-1].endswith(bytes(4))
        for pattern in ("*" * one + rng.choice("01") + "*" * (width - one - 1),
                        "".join(rng.choice("01") for _ in range(width)),
                        "".join(rng.choice("01*") for _ in range(width))):
            add(wire.dump_token, pk.group, gen_token(sk, pattern, rng))
    assert len(blobs) == 8 * len(WIRE_SCHEMES)
    assert digest(blobs) == WIRE_DIGEST
    assert digest(v1_blobs) == WIRE_V1_DIGEST


# CLI runs whose stdout is hashed; timing's wall_ms column is dropped
# because it carries real measurements
CSV_DIGESTS = {
    "benchmark --n 256 --algorithm GO --trials 3 --seed 42":
        "9f5ef282c6c714ec8df1e750471f5f7562e24fa8daeb716fbd210dee5986a9f7",
    "benchmark --n 1024 --algorithm MSGO --depth 4 --trials 2 --seed 42 "
    "--fractions 0.3,0.6":
        "a4e10b00528fc53feb1eb5ea0e7f4ad8bff0511078979a7ae86ed82cdb8a2c8a",
    "benchmark --n 200 --algorithm RANDOM --trials 3 --seed 7 --noise 0.2 "
    "--uniform-zones --dummy-cover":
        "b2c7dee6ccf6c9835a9a22072efdc8af7e75eba15af23a45119e05d82aa6cc98",
    "depth-sweep --n 100 --trials 3 --seed 42":
        "315cfe6859e74daf2a63343ec35ed33c25af32b596283b3c5a02cabc65c69c4b",
    "dynamics --n 64 --trials 2 --seed 5 --algorithm SGO --dyn-zones 10":
        "d1cafc55f590d09c90aa0639600bd968acdfbf6ee55940529cb76b40c5ae1b22",
    "timing --n 300 --algorithm HGE --trials 3 --seed 4":
        "6080d998715b88cbf0f4f36f61e01364d72239ddadf413d3a7d3f5f4b83bd541",
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
