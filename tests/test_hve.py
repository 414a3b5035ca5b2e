"""HVE scheme: match semantics, pairing counts, determinism, serialization."""

import random

import pytest

from hvezones import wire
from hvezones.group import BilinearGroup
from hvezones.hve import MessageSpace, encrypt, gen_token, query, setup


def make_scheme(width, seed=1):
    pk, sk = setup(width, seed=seed)
    messages = MessageSpace(pk.group, [3, 8], seed=seed)
    return pk, sk, messages


def matches(attribute: str, pattern: str) -> bool:
    return all(p == "*" or p == a for a, p in zip(attribute, pattern))


def test_setup_structure():
    pk, sk = setup(4, seed=0)
    assert pk.width == sk.width == 4
    assert len(pk.u_blinded) == len(pk.h_blinded) == len(pk.w_blinded) == 4
    pk1, _ = setup(1, seed=0)
    assert pk1.width == 1
    with pytest.raises(ValueError):
        setup(0)


def test_setup_deterministic_byte_identical():
    pk_a, sk_a = setup(7, seed=99)
    pk_b, sk_b = setup(7, seed=99)
    assert wire.dump_public_key(pk_a) == wire.dump_public_key(pk_b)
    assert sk_a == sk_b


def test_secret_key_elements_have_order_p():
    _, sk = setup(5, seed=4)
    grp = sk.group
    for el in (sk.g, sk.v, *sk.u, *sk.h, *sk.w):
        assert grp.in_gp(el)
        assert grp.power(el, grp.p) == grp.identity


def test_all_star_token_matches_everything():
    pk, sk, messages = make_scheme(4)
    rng = random.Random(0)
    token = gen_token(sk, "****", rng)
    assert token.positions == ()
    assert token.k0 == pk.group.power(sk.g, sk.a)  # empty product leaves g^a
    for value in range(16):
        c = encrypt(pk, format(value, "04b"), messages.element(3), rng)
        result = query(pk.group, c, token, messages)
        assert result.message == 3
        assert result.pairings == 1


def test_exact_match_pattern():
    pk, sk, messages = make_scheme(4)
    rng = random.Random(1)
    c = encrypt(pk, "0101", messages.element(8), rng)
    assert query(pk.group, c, gen_token(sk, "0101", rng), messages).message == 8


def test_token_star_sets():
    _, sk = setup(4, seed=2)
    rng = random.Random(0)
    # token components exist exactly for the non-star text positions
    assert gen_token(sk, "00**", rng).positions == (0, 1)
    assert len(gen_token(sk, "*0**", rng).positions) == 1


def test_pattern_validation():
    _, sk = setup(4, seed=2)
    rng = random.Random(0)
    with pytest.raises(ValueError):
        gen_token(sk, "01*", rng)       # wrong length
    with pytest.raises(ValueError):
        gen_token(sk, "01x*", rng)      # bad symbol


def test_attribute_validation():
    pk, _, messages = make_scheme(4)
    rng = random.Random(0)
    with pytest.raises(ValueError):
        encrypt(pk, "011", messages.element(3), rng)
    with pytest.raises(ValueError):
        encrypt(pk, "01*1", messages.element(3), rng)


def test_width_mismatch_at_query():
    pk, sk, messages = make_scheme(4)
    pk5, sk5, _ = make_scheme(5, seed=7)
    rng = random.Random(0)
    c = encrypt(pk, "0101", messages.element(3), rng)
    tk5 = gen_token(sk5, "01*10", rng)
    with pytest.raises(ValueError):
        query(pk.group, c, tk5, messages)


def test_match_set_of_pattern_01s1_by_enumeration():
    """Every 4-bit attribute against pattern 01*1: match iff non-star agree."""
    pk, sk, messages = make_scheme(4)
    rng = random.Random(5)
    token = gen_token(sk, "01*1", rng)
    for value in range(16):
        attribute = format(value, "04b")
        c = encrypt(pk, attribute, messages.element(3), rng)
        result = query(pk.group, c, token, messages)
        assert (result.message == 3) == matches(attribute, "01*1")


def test_match_set_of_pattern_1s0s_by_enumeration():
    pk, sk, messages = make_scheme(4)
    rng = random.Random(6)
    token = gen_token(sk, "1*0*", rng)
    for value in range(16):
        attribute = format(value, "04b")
        c = encrypt(pk, attribute, messages.element(8), rng)
        result = query(pk.group, c, token, messages)
        assert result.matched == matches(attribute, "1*0*")
        assert result.pairings == 5  # two non-star positions


def test_pairing_count_k10_four_stars():
    pk, sk, messages = make_scheme(10)
    rng = random.Random(2)
    pattern = "1010****01"  # 4 stars of 10
    c = encrypt(pk, "1010110101", messages.element(3), rng)
    result = query(pk.group, c, gen_token(sk, pattern, rng), messages)
    assert result.pairings == 2 * 6 + 1 == 13


def test_reencryption_differs_but_matches_same_tokens():
    pk, sk, messages = make_scheme(6)
    rng = random.Random(3)
    c1 = encrypt(pk, "010011", messages.element(3), rng)
    c2 = encrypt(pk, "010011", messages.element(3), rng)
    assert wire.dump_ciphertext(c1) != wire.dump_ciphertext(c2)
    for pattern in ("01**11", "0*0*1*", "******", "010011"):
        t = gen_token(sk, pattern, rng)
        r1 = query(pk.group, c1, t, messages)
        r2 = query(pk.group, c2, t, messages)
        assert r1.message == r2.message == 3


def test_nonmatch_value_outside_message_space():
    pk, sk, messages = make_scheme(4)
    rng = random.Random(8)
    c = encrypt(pk, "1111", messages.element(3), rng)
    result = query(pk.group, c, gen_token(sk, "0***", rng), messages)
    assert result.message is None
    assert result.value not in (messages.element(3), messages.element(8))


def test_ciphertext_component_count():
    pk, _, messages = make_scheme(6)
    rng = random.Random(0)
    c = encrypt(pk, "010101", messages.element(3), rng)
    components = (c.c_prime, c.c0, *c.c1, *c.c2)
    assert len(components) == 2 * c.width + 2 == 2 * 6 + 2
    assert len(c.c1) == len(c.c2) == 6


def test_exhaustive_match_semantics_small_widths():
    """Soundness/completeness for every attribute and pattern at l <= 3."""
    for width in (1, 2, 3):
        pk, sk, messages = make_scheme(width, seed=width)
        rng = random.Random(width)
        ciphers = {}
        for value in range(1 << width):
            attribute = format(value, f"0{width}b")
            ciphers[attribute] = encrypt(pk, attribute, messages.element(3), rng)
        for pattern_id in range(3 ** width):
            digits = []
            x = pattern_id
            for _ in range(width):
                digits.append("01*"[x % 3])
                x //= 3
            pattern = "".join(digits)
            token = gen_token(sk, pattern, rng)
            expected_pairings = 2 * sum(1 for ch in pattern if ch != "*") + 1
            for attribute, c in ciphers.items():
                result = query(pk.group, c, token, messages)
                assert result.pairings == expected_pairings
                assert result.matched == matches(attribute, pattern)


@pytest.mark.parametrize("attribute,pattern", [
    ("0110", "****"),       # |J| = 0
    ("0110", "**1*"),       # one position, match
    ("0110", "*0**"),       # one position, non-match
    ("0110", "0110"),       # full width, match
    ("0110", "0111"),       # full width, non-match
    ("0110", "0*1*"),
    ("0110", "1**0"),
])
def test_pair_calls_equal_reported_pairings(monkeypatch, attribute, pattern):
    """Every pairing the result reports is one call to BilinearGroup.pair."""
    pk, sk, messages = make_scheme(4, seed=5)
    rng = random.Random(4)
    c = encrypt(pk, attribute, messages.element(8), rng)
    token = gen_token(sk, pattern, rng)
    calls = []
    pair = BilinearGroup.pair

    def counted(self, x, y):
        calls.append(1)
        return pair(self, x, y)

    monkeypatch.setattr(BilinearGroup, "pair", counted)
    result = query(pk.group, c, token, messages)
    assert len(calls) == result.pairings
    assert result.pairings == 2 * len(token.positions) + 1
    assert result.matched == matches(attribute, pattern)
