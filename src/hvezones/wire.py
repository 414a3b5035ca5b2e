"""Self-describing binary serialization for keys, ciphertexts and tokens.

Layout: one version byte, one type tag byte, then fields in a fixed order.
Every integer is length-prefixed (4-byte big-endian length, then big-endian
magnitude; zero encodes as length 0).  Group elements are two integers,
strings are length-prefixed ASCII.  The group factors (P, Q) are embedded
so each blob decodes standalone; this leaks the factorization, which is
consistent with the reference group being deliberately insecure.

Loaders reject, with WireError, truncated blobs, trailing bytes after the
last field, non-ASCII strings, key blobs whose group factors are not two
distinct primes, and tokens whose positions are not exactly their
pattern's non-star positions in ascending order.
"""

from __future__ import annotations

import io
from .group import BilinearGroup, Element, GroupError
from .hve import Ciphertext, HveToken, PublicKey, SecretKey, check_pattern

VERSION = 1

TAG_PUBLIC_KEY = 1
TAG_SECRET_KEY = 2
TAG_CIPHERTEXT = 3
TAG_TOKEN = 4


class WireError(ValueError):
    """Malformed or unsupported serialized blob."""


def _write_int(buf: io.BytesIO, value: int) -> None:
    if value < 0:
        raise WireError("negative integers are not representable")
    raw = value.to_bytes((value.bit_length() + 7) // 8, "big") if value else b""
    buf.write(len(raw).to_bytes(4, "big"))
    buf.write(raw)


def _read_int(buf: io.BytesIO) -> int:
    head = buf.read(4)
    if len(head) != 4:
        raise WireError("truncated integer length")
    size = int.from_bytes(head, "big")
    raw = buf.read(size)
    if len(raw) != size:
        raise WireError("truncated integer body")
    return int.from_bytes(raw, "big") if raw else 0


def _write_element(buf: io.BytesIO, el: Element) -> None:
    _write_int(buf, el[0])
    _write_int(buf, el[1])


def _read_element(buf: io.BytesIO) -> Element:
    return (_read_int(buf), _read_int(buf))


def _read_group(buf: io.BytesIO) -> BilinearGroup:
    p, q = _read_int(buf), _read_int(buf)
    try:
        return BilinearGroup(p, q)
    except GroupError as exc:
        raise WireError(str(exc)) from exc


def _write_str(buf: io.BytesIO, s: str) -> None:
    raw = s.encode("ascii")
    buf.write(len(raw).to_bytes(4, "big"))
    buf.write(raw)


def _read_str(buf: io.BytesIO) -> str:
    head = buf.read(4)
    if len(head) != 4:
        raise WireError("truncated string length")
    size = int.from_bytes(head, "big")
    raw = buf.read(size)
    if len(raw) != size:
        raise WireError("truncated string body")
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise WireError("string is not ASCII") from exc


def _header(buf: io.BytesIO, tag: int) -> None:
    buf.write(bytes([VERSION, tag]))


def _check_header(buf: io.BytesIO, tag: int) -> None:
    head = buf.read(2)
    if len(head) != 2:
        raise WireError("blob too short for header")
    if head[0] != VERSION:
        raise WireError(f"unsupported version {head[0]}")
    if head[1] != tag:
        raise WireError(f"expected tag {tag}, found {head[1]}")


def _check_end(buf: io.BytesIO) -> None:
    if buf.read(1):
        raise WireError("trailing bytes after the last field")


def dump_public_key(pk: PublicKey) -> bytes:
    buf = io.BytesIO()
    _header(buf, TAG_PUBLIC_KEY)
    _write_int(buf, pk.group.p)
    _write_int(buf, pk.group.q)
    _write_int(buf, pk.width)
    _write_element(buf, pk.g_q)
    _write_element(buf, pk.v_blinded)
    _write_element(buf, pk.a_pair)
    for i in range(pk.width):
        _write_element(buf, pk.u_blinded[i])
        _write_element(buf, pk.h_blinded[i])
        _write_element(buf, pk.w_blinded[i])
    return buf.getvalue()


def load_public_key(blob: bytes) -> PublicKey:
    buf = io.BytesIO(blob)
    _check_header(buf, TAG_PUBLIC_KEY)
    group = _read_group(buf)
    width = _read_int(buf)
    g_q = _read_element(buf)
    v_blinded = _read_element(buf)
    a_pair = _read_element(buf)
    u, h, w = [], [], []
    for _ in range(width):
        u.append(_read_element(buf))
        h.append(_read_element(buf))
        w.append(_read_element(buf))
    _check_end(buf)
    return PublicKey(group=group, g_q=g_q, v_blinded=v_blinded, a_pair=a_pair,
                     u_blinded=tuple(u), h_blinded=tuple(h), w_blinded=tuple(w))


def dump_secret_key(sk: SecretKey) -> bytes:
    buf = io.BytesIO()
    _header(buf, TAG_SECRET_KEY)
    _write_int(buf, sk.group.p)
    _write_int(buf, sk.group.q)
    _write_int(buf, sk.width)
    _write_element(buf, sk.g_q)
    _write_int(buf, sk.a)
    _write_element(buf, sk.g)
    _write_element(buf, sk.v)
    for i in range(sk.width):
        _write_element(buf, sk.u[i])
        _write_element(buf, sk.h[i])
        _write_element(buf, sk.w[i])
    return buf.getvalue()


def load_secret_key(blob: bytes) -> SecretKey:
    buf = io.BytesIO(blob)
    _check_header(buf, TAG_SECRET_KEY)
    group = _read_group(buf)
    width = _read_int(buf)
    g_q = _read_element(buf)
    a = _read_int(buf)
    g = _read_element(buf)
    v = _read_element(buf)
    u, h, w = [], [], []
    for _ in range(width):
        u.append(_read_element(buf))
        h.append(_read_element(buf))
        w.append(_read_element(buf))
    _check_end(buf)
    return SecretKey(group=group, g_q=g_q, a=a, g=g, v=v,
                     u=tuple(u), h=tuple(h), w=tuple(w))


def dump_ciphertext(c: Ciphertext) -> bytes:
    buf = io.BytesIO()
    _header(buf, TAG_CIPHERTEXT)
    _write_int(buf, c.width)
    _write_element(buf, c.c_prime)
    _write_element(buf, c.c0)
    for i in range(c.width):
        _write_element(buf, c.c1[i])
        _write_element(buf, c.c2[i])
    return buf.getvalue()


def load_ciphertext(blob: bytes) -> Ciphertext:
    buf = io.BytesIO(blob)
    _check_header(buf, TAG_CIPHERTEXT)
    width = _read_int(buf)
    c_prime = _read_element(buf)
    c0 = _read_element(buf)
    c1, c2 = [], []
    for _ in range(width):
        c1.append(_read_element(buf))
        c2.append(_read_element(buf))
    _check_end(buf)
    return Ciphertext(c_prime=c_prime, c0=c0, c1=tuple(c1), c2=tuple(c2))


def dump_token(tk: HveToken) -> bytes:
    buf = io.BytesIO()
    _header(buf, TAG_TOKEN)
    _write_str(buf, tk.pattern)
    _write_element(buf, tk.k0)
    _write_int(buf, len(tk.positions))
    for j, i in enumerate(tk.positions):
        _write_int(buf, i)
        _write_element(buf, tk.k1[j])
        _write_element(buf, tk.k2[j])
    return buf.getvalue()


def load_token(blob: bytes) -> HveToken:
    buf = io.BytesIO(blob)
    _check_header(buf, TAG_TOKEN)
    pattern = _read_str(buf)
    k0 = _read_element(buf)
    count = _read_int(buf)
    positions, k1, k2 = [], [], []
    for _ in range(count):
        positions.append(_read_int(buf))
        k1.append(_read_element(buf))
        k2.append(_read_element(buf))
    _check_end(buf)
    try:
        check_pattern(pattern)
    except ValueError as exc:
        raise WireError(str(exc)) from exc
    if positions != [i for i, ch in enumerate(pattern) if ch != "*"]:
        raise WireError("token positions are not the pattern's non-star positions")
    return HveToken(pattern=pattern, k0=k0, positions=tuple(positions),
                    k1=tuple(k1), k2=tuple(k2))
