"""Binary serialization round-trips and format framing."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvezones import wire
from hvezones.hve import HveToken, MessageSpace, encrypt, gen_token, query, setup
from hvezones.tokens import expand_implicant, pattern_implicant


def test_key_round_trips():
    pk, _ = setup(5, seed=21)
    assert wire.load_public_key(wire.dump_public_key(pk)) == pk


def test_ciphertext_and_token_round_trips():
    pk, sk = setup(6, seed=22)
    messages = MessageSpace(pk.group, [1], seed=0)
    rng = random.Random(5)
    c = encrypt(pk, "010110", messages.element(1), rng)
    t = gen_token(sk, "0*01*0", rng)
    assert wire.load_ciphertext(wire.dump_ciphertext(c)) == c
    assert wire.load_token(wire.dump_token(t)) == t


def test_public_key_alone_recovers_a_tokens_codewords():
    """What a token leaks: a server holding the public key and a token blob
    encrypts every attribute under a message of its own choosing and
    queries the token.  The attributes whose query returns that message are
    exactly the pattern's codewords, though the token it queries has its
    pattern text starred out, so the leak is the scheme's, not the blob's."""
    k, pattern = 6, "1*0**0"
    pk, sk = setup(k, seed=23)
    blob = wire.dump_token(gen_token(sk, pattern, random.Random(6)))
    server_pk = wire.load_public_key(wire.dump_public_key(pk))
    token = dataclasses.replace(wire.load_token(blob), pattern="*" * k)
    chosen = MessageSpace(server_pk.group, [0], seed=7)
    rng = random.Random(8)
    recovered = {v for v in range(1 << k) if query(
        server_pk.group, encrypt(server_pk, format(v, f"0{k}b"), chosen.element(0), rng),
        token, chosen).matched}
    assert recovered == set(expand_implicant(pattern_implicant(pattern)))
    assert len(recovered) == 8


def test_version_byte_leads():
    pk, _ = setup(2, seed=1)
    blob = wire.dump_public_key(pk)
    assert blob[0] == wire.VERSION
    assert blob[1] == wire.TAG_PUBLIC_KEY


def test_wrong_tag_rejected():
    pk, _ = setup(2, seed=1)
    with pytest.raises(wire.WireError, match="expected tag 3, found 1"):
        wire.load_ciphertext(wire.dump_public_key(pk))


def test_truncated_blob_rejected():
    pk, _ = setup(3, seed=1)
    blob = wire.dump_public_key(pk)
    with pytest.raises(wire.WireError):
        wire.load_public_key(blob[: len(blob) // 2])


def test_unknown_version_rejected():
    pk, _ = setup(2, seed=1)
    blob = bytes([99]) + wire.dump_public_key(pk)[1:]
    with pytest.raises(wire.WireError):
        wire.load_public_key(blob)


@pytest.mark.parametrize("kind", ["public_key", "ciphertext", "token"])
def test_version_1_blobs_are_refused(kind):
    """Version 1 wrote each element as two exponent fields; its blobs are
    refused by version, before their layout is read."""
    assert wire.VERSION == 2
    load, blob = blobs_of_each_kind()[kind]
    with pytest.raises(wire.WireError, match="^unsupported version 1$"):
        load(bytes([1]) + blob[1:])


def blobs_of_each_kind():
    pk, sk = setup(4, seed=3)
    messages = MessageSpace(pk.group, [1], seed=0)
    rng = random.Random(2)
    c = encrypt(pk, "0110", messages.element(1), rng)
    t = gen_token(sk, "01*0", rng)
    return {"public_key": (wire.load_public_key, wire.dump_public_key(pk)),
            "ciphertext": (wire.load_ciphertext, wire.dump_ciphertext(c)),
            "token": (wire.load_token, wire.dump_token(t))}


@pytest.mark.parametrize("kind", ["public_key", "ciphertext", "token"])
def test_trailing_bytes_rejected(kind):
    load, blob = blobs_of_each_kind()[kind]
    load(blob)
    for tail in (b"\x00", b"\x00\x00\x00\x00"):
        with pytest.raises(wire.WireError):
            load(blob + tail)


def split_fields(blob):
    """Header and length-prefixed fields of a blob, parsed independently
    of the module under test."""
    fields, at = [], 2
    while at < len(blob):
        size = int.from_bytes(blob[at:at + 4], "big")
        fields.append(blob[at + 4:at + 4 + size])
        at += 4 + size
    return blob[:2], fields


def join_fields(header, fields):
    return header + b"".join(len(f).to_bytes(4, "big") + f for f in fields)


@pytest.mark.parametrize("factor", [399165290221 * 798330580441,     # psi_12
                                    3317044064679887385961981])     # psi_13
def test_public_key_with_a_pseudoprime_factor_rejected(factor):
    """A factor at or past the primality bound is refused before any
    Miller-Rabin round, so a strong pseudoprime cannot pass as prime."""
    _, blob = blobs_of_each_kind()["public_key"]
    header, fields = split_fields(blob)
    fields[0] = factor.to_bytes((factor.bit_length() + 7) // 8, "big")
    with pytest.raises(wire.WireError, match="^P and Q must be below [0-9]+$"):
        wire.load_public_key(join_fields(header, fields))


# the field index at which each blob declares its width or position count
@pytest.mark.parametrize("kind,count_at", [("public_key", 2), ("ciphertext", 0),
                                           ("token", 2)])
@pytest.mark.parametrize("edit", ["up", "max", "down"])
def test_declared_count_must_match_the_fields(kind, count_at, edit):
    load, blob = blobs_of_each_kind()[kind]
    header, fields = split_fields(blob)
    assert join_fields(header, fields) == blob
    declared = int.from_bytes(fields[count_at], "big")
    assert declared >= 1
    value = {"up": declared + 1, "max": 2**32 - 1, "down": declared - 1}[edit]
    fields[count_at] = value.to_bytes((value.bit_length() + 7) // 8, "big")
    with pytest.raises(wire.WireError):
        load(join_fields(header, fields))


@pytest.mark.parametrize("pattern,positions", [
    ("01*0", (0, 1, 2)),      # a star position
    ("01*0", (1, 0, 3)),      # not ascending
    ("01*0", (0, 1)),         # a non-star position missing
    ("01*0", (0, 1, 3, 3)),   # a repeated position
    ("01*0", (0, 1, 9)),      # beyond the width
    ("01x0", (0, 1, 2, 3)),   # a symbol outside {0,1,*}
])
def test_token_positions_must_be_the_non_star_positions(pattern, positions):
    el = 1
    tk = HveToken(pattern=pattern, k0=el, positions=positions,
                  k1=(el,) * len(positions), k2=(el,) * len(positions))
    with pytest.raises(wire.WireError):
        wire.load_token(wire.dump_token(tk))


def test_non_ascii_string_rejected():
    _, blob = blobs_of_each_kind()["token"]
    at = blob.index(b"01*0")
    with pytest.raises(wire.WireError):
        wire.load_token(blob[:at] + b"\xc3" + blob[at + 1:])


@st.composite
def wire_objects(draw):
    """A public key, ciphertext or token of width 1-16 with its loader and
    blob."""
    width = draw(st.integers(1, 16))
    pk, sk = setup(width, seed=draw(st.integers(0, 2**16)))
    rng = random.Random(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["public_key", "ciphertext", "token"]))
    if kind == "public_key":
        return wire.load_public_key, pk, wire.dump_public_key(pk)
    if kind == "ciphertext":
        attribute = draw(st.text("01", min_size=width, max_size=width))
        message = MessageSpace(pk.group, [1], seed=0).element(1)
        c = encrypt(pk, attribute, message, rng)
        return wire.load_ciphertext, c, wire.dump_ciphertext(c)
    pattern = draw(st.text("01*", min_size=width, max_size=width))
    t = gen_token(sk, pattern, rng)
    return wire.load_token, t, wire.dump_token(t)


@settings(max_examples=40, deadline=None)
@given(wire_objects(), st.integers(0, 255), st.integers(1, 255))
def test_blob_round_trip_and_corruption_properties(case, extra, mask):
    load, obj, blob = case
    assert load(blob) == obj
    for end in range(len(blob)):
        with pytest.raises(wire.WireError):
            load(blob[:end])
    with pytest.raises(wire.WireError):
        load(blob + bytes([extra]))
    # every position edited once: the blob still loads or is a WireError,
    # never another exception
    for at in range(len(blob)):
        edited = blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1:]
        try:
            load(edited)
        except wire.WireError:
            pass
