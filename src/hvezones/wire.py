"""Self-describing binary serialization for public keys, ciphertexts and tokens.

A blob is one version byte, one type tag byte, then a run of fields, each
a 4-byte big-endian length followed by that many bytes.  An integer field
is its big-endian magnitude (zero is the empty field) and a string field
is its ASCII bytes.  A group element is one integer field, its CRT
residue mod N (see `group`), so a loader needs no group to read it.
Each tag has one layout: a fixed head, one head field that declares a
count, then that many entries of a fixed number of fields.  The public
key embeds the group factors (P, Q) so it decodes standalone; this leaks
the factorization, which is consistent with the reference group being
deliberately insecure.

Loaders split and bounds-check the whole blob, then check its field count
against the count it declares, before any object is built.  They refuse,
with WireError, a wrong version (version 1 wrote each element as two
exponent fields) or tag, truncated blobs, trailing bytes, declared
counts that disagree with the fields present, non-ASCII strings, public keys whose group factors are not two distinct primes,
and tokens whose positions are not exactly their pattern's non-star
positions in ascending order.

There is no secret-key blob: the authority never ships its secret key,
and `hve.setup` re-derives a key pair from (width, seed).

A token blob carries its pattern text, so the server that loads it reads
the token's codewords.  The scheme reveals them anyway: the public key is
public, and a holder of it encrypts each of the 2^k attributes under a
message of its own choosing and queries the token, which returns that
message on exactly the pattern's codewords (offline keyword guessing;
Byun, Rhee, Park & Lee, SDM 2006).  `hve.query` reads only the width, J
and the key components, so the pattern text adds nothing to that.  What
stays hidden is which cells the codewords stand for: the repository
assumes the cell-to-codeword encoding is known to the authority and the
users but secret from the server, which matches users without holding it.
A server that learns the encoding learns each token's cells.
"""

from __future__ import annotations

import struct
from itertools import repeat
from typing import List, Union

from .group import BilinearGroup, GroupError
from .hve import Ciphertext, HveToken, PublicKey, check_pattern

VERSION = 2

TAG_PUBLIC_KEY = 1
TAG_CIPHERTEXT = 3
TAG_TOKEN = 4

# tag -> (head fields, index of the head field declaring the count,
# fields per counted entry)
_LAYOUTS = {
    TAG_PUBLIC_KEY: (6, 2, 3),  # P, Q, width, g_q, V, A | U_i, H_i, W_i
    TAG_CIPHERTEXT: (3, 0, 2),  # width, C', C_0 | C_{i,1}, C_{i,2}
    TAG_TOKEN: (3, 2, 3),       # pattern, K_0, |J| | i, K_{i,1}, K_{i,2}
}

_LENGTH = struct.Struct(">I")


class WireError(ValueError):
    """Malformed or unsupported serialized blob."""


def _pack(tag: int, fields: List[Union[int, str]]) -> bytes:
    out = [bytes((VERSION, tag))]
    try:
        for value in fields:
            raw = (value.encode("ascii") if isinstance(value, str)
                   else value.to_bytes((value.bit_length() + 7) // 8, "big"))
            out.append(len(raw).to_bytes(4, "big"))
            out.append(raw)
    except OverflowError as exc:
        raise WireError("negative integers are not representable") from exc
    return b"".join(out)


def _unpack(blob: bytes, tag: int) -> List[bytes]:
    """The fields of a blob of the given tag, checked against its layout."""
    if len(blob) < 2:
        raise WireError("blob too short for header")
    if blob[0] != VERSION:
        raise WireError(f"unsupported version {blob[0]}")
    if blob[1] != tag:
        raise WireError(f"expected tag {tag}, found {blob[1]}")
    fields = []
    at, end = 2, len(blob)
    try:
        while at < end:
            body = at + 4
            at = body + _LENGTH.unpack_from(blob, at)[0]
            fields.append(blob[body:at])
    except struct.error as exc:
        raise WireError("truncated field length") from exc
    if at != end:
        raise WireError("truncated field body")
    head, count_at, per = _LAYOUTS[tag]
    if len(fields) < head:
        raise WireError(f"{len(fields)} fields, fewer than the {head} of the head")
    count = int.from_bytes(fields[count_at], "big")
    if len(fields) != head + per * count:
        raise WireError(f"{len(fields)} fields, but the blob declares {count} "
                        f"entries of {per} after a head of {head}")
    return fields


def _ints(fields: List[bytes]) -> List[int]:
    return list(map(int.from_bytes, fields, repeat("big")))


def dump_public_key(pk: PublicKey) -> bytes:
    fields = [pk.group.p, pk.group.q, pk.width, pk.g_q, pk.v_blinded, pk.a_pair]
    for uhw in zip(pk.u_blinded, pk.h_blinded, pk.w_blinded):
        fields += uhw
    return _pack(TAG_PUBLIC_KEY, fields)


def load_public_key(blob: bytes) -> PublicKey:
    n = _ints(_unpack(blob, TAG_PUBLIC_KEY))
    try:
        group = BilinearGroup(n[0], n[1])
    except GroupError as exc:
        raise WireError(str(exc)) from exc
    return PublicKey(group=group, g_q=n[3], v_blinded=n[4], a_pair=n[5],
                     u_blinded=tuple(n[6::3]), h_blinded=tuple(n[7::3]),
                     w_blinded=tuple(n[8::3]))


def dump_ciphertext(c: Ciphertext) -> bytes:
    fields = [c.width, c.c_prime, c.c0]
    for c12 in zip(c.c1, c.c2):
        fields += c12
    return _pack(TAG_CIPHERTEXT, fields)


def load_ciphertext(blob: bytes) -> Ciphertext:
    n = _ints(_unpack(blob, TAG_CIPHERTEXT))
    return Ciphertext(c_prime=n[1], c0=n[2], c1=tuple(n[3::2]), c2=tuple(n[4::2]))


def dump_token(tk: HveToken) -> bytes:
    fields = [tk.pattern, tk.k0, len(tk.positions)]
    for entry in zip(tk.positions, tk.k1, tk.k2):
        fields += entry
    return _pack(TAG_TOKEN, fields)


def load_token(blob: bytes) -> HveToken:
    fields = _unpack(blob, TAG_TOKEN)
    try:
        pattern = check_pattern(fields[0].decode("ascii"))
    except UnicodeDecodeError as exc:
        raise WireError("string is not ASCII") from exc
    except ValueError as exc:
        raise WireError(str(exc)) from exc
    n = _ints(fields)
    positions = n[3::3]
    if positions != [i for i, ch in enumerate(pattern) if ch != "*"]:
        raise WireError("token positions are not the pattern's non-star positions")
    return HveToken(pattern=pattern, k0=n[1], positions=tuple(positions),
                    k1=tuple(n[4::3]), k2=tuple(n[5::3]))
