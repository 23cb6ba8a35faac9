"""Schnorr signatures over secp256k1, implemented from scratch.

The paper's architecture needs ownership and authenticity (every transaction,
data-set registration, and access grant is signed).  We implement a compact
Schnorr scheme over the secp256k1 curve in pure Python: enough to make the
protocol structure real (keygen / sign / verify / address derivation) without
any external crypto dependency.  Nonces are derived deterministically from
the secret key and message (RFC-6979 style), so signing is reproducible.

This is a reproduction artifact, not audited cryptography.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.errors import CryptoError

# secp256k1 domain parameters.
_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

Point = Optional[Tuple[int, int]]  # None is the point at infinity.

# Arithmetic runs in Jacobian coordinates (X, Y, Z) ~ (X/Z^2, Y/Z^3): one
# modular inversion per scalar multiplication instead of one per addition.
_JPoint = Tuple[int, int, int]  # Z == 0 is the point at infinity.
_INF: _JPoint = (0, 1, 0)


def _jac_double(p: _JPoint) -> _JPoint:
    x, y, z = p
    if z == 0 or y == 0:
        return _INF
    ysq = y * y % _P
    s = 4 * x * ysq % _P
    m = 3 * x * x % _P  # curve parameter a == 0 for secp256k1
    nx = (m * m - 2 * s) % _P
    ny = (m * (s - nx) - 8 * ysq * ysq) % _P
    nz = 2 * y * z % _P
    return (nx, ny, nz)


def _jac_add(p: _JPoint, q: _JPoint) -> _JPoint:
    if p[2] == 0:
        return q
    if q[2] == 0:
        return p
    x1, y1, z1 = p
    x2, y2, z2 = q
    z1sq = z1 * z1 % _P
    z2sq = z2 * z2 % _P
    u1 = x1 * z2sq % _P
    u2 = x2 * z1sq % _P
    s1 = y1 * z2sq * z2 % _P
    s2 = y2 * z1sq * z1 % _P
    if u1 == u2:
        if s1 != s2:
            return _INF
        return _jac_double(p)
    h = (u2 - u1) % _P
    r = (s2 - s1) % _P
    hsq = h * h % _P
    hcb = hsq * h % _P
    u1hsq = u1 * hsq % _P
    nx = (r * r - hcb - 2 * u1hsq) % _P
    ny = (r * (u1hsq - nx) - s1 * hcb) % _P
    nz = h * z1 * z2 % _P
    return (nx, ny, nz)


def _jac_add_affine(p: _JPoint, x2: int, y2: int) -> _JPoint:
    """``p + (x2, y2)`` for an affine addend (mixed addition, Z2 == 1)."""
    x1, y1, z1 = p
    if z1 == 0:
        return (x2, y2, 1)
    z1sq = z1 * z1 % _P
    h = (x2 * z1sq - x1) % _P
    r = (y2 * z1sq * z1 - y1) % _P
    if h == 0:
        return _jac_double(p) if r == 0 else _INF
    hsq = h * h % _P
    hcb = hsq * h % _P
    x1hsq = x1 * hsq % _P
    nx = (r * r - hcb - 2 * x1hsq) % _P
    ny = (r * (x1hsq - nx) - y1 * hcb) % _P
    return (nx, ny, z1 * h % _P)


def _jac_to_affine(p: _JPoint) -> Point:
    if p[2] == 0:
        return None
    z_inv = pow(p[2], -1, _P)
    z_inv_sq = z_inv * z_inv % _P
    return (p[0] * z_inv_sq % _P, p[1] * z_inv_sq * z_inv % _P)


def _batch_to_affine(points: List[_JPoint]) -> List[Tuple[int, int]]:
    """Normalise finite Jacobian points with one shared inversion."""
    prefix = [1]
    for _, _, z in points:
        prefix.append(prefix[-1] * z % _P)
    inv = pow(prefix[-1], -1, _P)
    out: List[Tuple[int, int]] = [(0, 0)] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z = points[i]
        z_inv = inv * prefix[i] % _P
        inv = inv * z % _P
        z_inv_sq = z_inv * z_inv % _P
        out[i] = (x * z_inv_sq % _P, y * z_inv_sq * z_inv % _P)
    return out


# Fixed-base comb for G: _COMB[i][d - 1] is d * 16^i * G in affine form, for
# the 64 4-bit windows i of a 256-bit scalar and digits d in 1..15.  k*G is
# then one mixed addition per non-zero digit and no doublings.
def _build_comb() -> List[List[Tuple[int, int]]]:
    jac: List[_JPoint] = []
    base: _JPoint = (_GX, _GY, 1)
    for _ in range(64):
        multiple = base
        for _ in range(15):
            jac.append(multiple)
            multiple = _jac_add(multiple, base)
        base = multiple  # 16 * base
    flat = _batch_to_affine(jac)
    return [flat[i : i + 15] for i in range(0, len(flat), 15)]


_COMB = _build_comb()


def _comb_add(acc: _JPoint, k: int) -> _JPoint:
    """``acc + k*G`` for ``0 <= k < 2^256``."""
    for window in _COMB:
        digit = k & 15
        if digit:
            x, y = window[digit - 1]
            acc = _jac_add_affine(acc, x, y)
        k >>= 4
    return acc


# GLV endomorphism: lambda*(x, y) == (beta*x, y) on secp256k1, where beta and
# lambda are primitive cube roots of unity mod P and mod N.  The lattice
# basis (a1, b1), (a2, b2) of {(x, y): x + y*lambda == 0 mod N} splits any
# scalar into two halves of about 128 bits (libsecp256k1, scalar_impl.h).
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1


def _glv_split(k: int) -> Tuple[int, int]:
    """Signed ``(k1, k2)`` with ``k1 + k2*lambda == k (mod N)``."""
    c1 = (_B2 * k + _N // 2) // _N
    c2 = (-_B1 * k + _N // 2) // _N
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _wnaf(k: int) -> List[int]:
    """Width-5 non-adjacent form of ``k >= 0``, least significant digit first."""
    digits = []
    while k:
        digit = 0
        if k & 1:
            digit = k & 31
            if digit >= 16:
                digit -= 32
            k -= digit
        digits.append(digit)
        k >>= 1
    return digits


def _glv_mul(k: int, point: Tuple[int, int]) -> _JPoint:
    """``k*point`` by the GLV split and a joint width-5 wNAF ladder."""
    k1, k2 = _glv_split(k % _N)
    twice = _jac_double((point[0], point[1], 1))
    odd: List[_JPoint] = [(point[0], point[1], 1)]  # P, 3P, ..., 15P
    for _ in range(7):
        odd.append(_jac_add(odd[-1], twice))
    # Affine tables make every ladder addition a mixed one.  A negative half
    # negates y; the lambda half maps (x, y) to (beta*x, y).
    table1 = _batch_to_affine(odd)
    table2 = [(x * _BETA % _P, y) for x, y in table1]
    if k1 < 0:
        table1 = [(x, _P - y) for x, y in table1]
    if k2 < 0:
        table2 = [(x, _P - y) for x, y in table2]
    naf1, naf2 = _wnaf(abs(k1)), _wnaf(abs(k2))
    naf1 += [0] * (len(naf2) - len(naf1))
    naf2 += [0] * (len(naf1) - len(naf2))
    acc = _INF
    for i in range(len(naf1) - 1, -1, -1):
        acc = _jac_double(acc)
        for digit, table in ((naf1[i], table1), (naf2[i], table2)):
            if digit > 0:
                x, y = table[digit >> 1]
                acc = _jac_add_affine(acc, x, y)
            elif digit < 0:
                x, y = table[-digit >> 1]
                acc = _jac_add_affine(acc, x, _P - y)
    return acc


def _encode_point(point: Point) -> bytes:
    if point is None:
        raise CryptoError("cannot encode the point at infinity")
    x, y = point
    return b"\x02" + x.to_bytes(32, "big") if y % 2 == 0 else b"\x03" + x.to_bytes(32, "big")


def _lift_x(data: bytes) -> Point:
    if len(data) != 33 or data[0] not in (2, 3):
        raise CryptoError("invalid compressed point encoding")
    x = int.from_bytes(data[1:], "big")
    if x >= _P:
        raise CryptoError("point x out of range")
    y_sq = (pow(x, 3, _P) + 7) % _P
    y = pow(y_sq, (_P + 1) // 4, _P)
    if y * y % _P != y_sq:
        raise CryptoError("x is not on the curve")
    if (y % 2 == 0) != (data[0] == 2):
        y = _P - y
    return (x, y)


def _tagged_hash(tag: bytes, data: bytes) -> int:
    digest = hashlib.sha256(tag + data).digest()
    return int.from_bytes(digest, "big") % _N


@dataclass(frozen=True)
class PublicKey:
    """Compressed secp256k1 public key."""

    data: bytes

    def __post_init__(self) -> None:
        # Validate eagerly and keep the lifted point: lifting is a modular
        # square root, so ``point`` must not redo it on every access.
        object.__setattr__(self, "_point", _lift_x(self.data))

    @property
    def point(self) -> Tuple[int, int]:
        return self.__dict__["_point"]

    def address(self) -> str:
        """Short hex address derived from the key (ledger account id)."""
        return hashlib.sha256(self.data).hexdigest()[:40]

    def verify(self, message: bytes, signature: "Signature") -> bool:
        """Schnorr verification: R = s*G - e*P and e == H(R || P || m).

        The candidate ``s*G - e*P`` is encoded and compared with ``r`` byte
        for byte; the encoding is canonical, so this equals comparing points.
        """
        if not 0 < signature.s < _N:
            return False
        e = _tagged_hash(b"medchain/schnorr", signature.r + self.data + message)
        candidate = _comb_add(_glv_mul(_N - e, self.point), signature.s)
        point = _jac_to_affine(candidate)
        return point is not None and _encode_point(point) == signature.r


@dataclass(frozen=True)
class Signature:
    """Schnorr signature: compressed nonce point ``r`` and scalar ``s``."""

    r: bytes
    s: int

    def to_bytes(self) -> bytes:
        return self.r + self.s.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        if len(data) != 65:
            raise CryptoError("signature must be 65 bytes")
        return cls(r=data[:33], s=int.from_bytes(data[33:], "big"))


@dataclass(frozen=True)
class PrivateKey:
    """secp256k1 private scalar with deterministic Schnorr signing."""

    secret: int

    def __post_init__(self) -> None:
        if not 0 < self.secret < _N:
            raise CryptoError("private key out of range")

    @classmethod
    def from_seed(cls, seed: bytes) -> "PrivateKey":
        """Derive a valid private key from arbitrary seed bytes."""
        counter = 0
        while True:
            digest = hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
            candidate = int.from_bytes(digest, "big")
            if 0 < candidate < _N:
                return cls(candidate)
            counter += 1

    def public_key(self) -> PublicKey:
        """The matching public key (memoized: it costs a scalar multiplication)."""
        cached = self.__dict__.get("_public_memo")
        if cached is None:
            cached = PublicKey(_encode_point(_jac_to_affine(_comb_add(_INF, self.secret))))
            object.__setattr__(self, "_public_memo", cached)
        return cached

    def _nonce(self, message: bytes) -> int:
        """Deterministic nonce (RFC-6979 flavoured HMAC construction)."""
        key = self.secret.to_bytes(32, "big")
        counter = 0
        while True:
            mac = hmac.new(
                key, message + counter.to_bytes(4, "big"), hashlib.sha256
            ).digest()
            k = int.from_bytes(mac, "big") % _N
            if k != 0:
                return k
            counter += 1

    def sign(self, message: bytes) -> Signature:
        """Produce a Schnorr signature over ``message``."""
        k = self._nonce(message)
        r_bytes = _encode_point(_jac_to_affine(_comb_add(_INF, k)))
        pub = self.public_key()
        e = _tagged_hash(b"medchain/schnorr", r_bytes + pub.data + message)
        s = (k + e * self.secret) % _N
        return Signature(r=r_bytes, s=s)


def shared_secret(private: "PrivateKey", public: "PublicKey") -> bytes:
    """ECDH shared secret: hash of the x-coordinate of ``secret * P``.

    Both sides derive the same 32 bytes: ``shared_secret(a, B) ==
    shared_secret(b, A)``.  Used by the HIE layer's envelope encryption.
    """
    point = _jac_to_affine(_glv_mul(private.secret, public.point))
    if point is None:
        raise CryptoError("degenerate shared secret")
    return hashlib.sha256(b"medchain/ecdh" + point[0].to_bytes(32, "big")).digest()


@dataclass(frozen=True)
class KeyPair:
    """Convenience bundle of a private key, its public key, and address."""

    private: PrivateKey
    public: PublicKey

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeyPair":
        private = PrivateKey.from_seed(seed)
        return cls(private=private, public=private.public_key())

    @classmethod
    def generate(cls, label: str) -> "KeyPair":
        """Deterministic keypair derived from a human-readable label."""
        return cls.from_seed(label.encode("utf-8"))

    @property
    def address(self) -> str:
        return self.public.address()

    def sign(self, message: bytes) -> Signature:
        return self.private.sign(message)
