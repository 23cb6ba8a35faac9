"""Schnorr signature and ECDH tests."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import signatures as sig
from repro.common.errors import CryptoError
from repro.common.signatures import (
    KeyPair,
    PrivateKey,
    PublicKey,
    Signature,
    shared_secret,
)


def test_sign_verify_round_trip(alice):
    signature = alice.sign(b"message")
    assert alice.public.verify(b"message", signature)


def test_verify_rejects_different_message(alice):
    signature = alice.sign(b"message")
    assert not alice.public.verify(b"other", signature)


def test_verify_rejects_wrong_key(alice, bob):
    signature = alice.sign(b"message")
    assert not bob.public.verify(b"message", signature)


def test_signing_is_deterministic(alice):
    assert alice.sign(b"m") == alice.sign(b"m")


def test_different_messages_different_signatures(alice):
    assert alice.sign(b"m1") != alice.sign(b"m2")


def test_keypair_from_label_is_deterministic():
    assert KeyPair.generate("label").address == KeyPair.generate("label").address


def test_different_labels_different_addresses():
    assert KeyPair.generate("a").address != KeyPair.generate("b").address


def test_address_is_40_hex_chars(alice):
    address = alice.address
    assert len(address) == 40
    int(address, 16)  # parses as hex


def test_signature_bytes_round_trip(alice):
    signature = alice.sign(b"x")
    assert Signature.from_bytes(signature.to_bytes()) == signature


def test_signature_from_bad_length_rejected():
    with pytest.raises(CryptoError):
        Signature.from_bytes(b"\x00" * 10)


def test_tampered_signature_fails(alice):
    signature = alice.sign(b"msg")
    tampered = Signature(r=signature.r, s=(signature.s + 1))
    assert not alice.public.verify(b"msg", tampered)


def test_public_key_rejects_invalid_encoding():
    with pytest.raises(CryptoError):
        PublicKey(b"\x05" + b"\x00" * 32)


def test_private_key_range_enforced():
    with pytest.raises(CryptoError):
        PrivateKey(0)


def test_ecdh_is_symmetric(alice, bob):
    assert shared_secret(alice.private, bob.public) == shared_secret(
        bob.private, alice.public
    )


def test_ecdh_differs_per_pair(alice, bob):
    carol = KeyPair.generate("carol")
    assert shared_secret(alice.private, bob.public) != shared_secret(
        alice.private, carol.public
    )


@settings(max_examples=10, deadline=None)
@given(st.binary(min_size=0, max_size=64), st.text(min_size=1, max_size=10))
def test_property_sign_verify(message, label):
    keypair = KeyPair.generate(label)
    assert keypair.public.verify(message, keypair.sign(message))


@settings(max_examples=10, deadline=None)
@given(st.binary(min_size=1, max_size=32))
def test_property_bitflip_breaks_verification(message):
    keypair = KeyPair.generate("flipper")
    signature = keypair.sign(message)
    flipped = bytes([message[0] ^ 0x01]) + message[1:]
    assert not keypair.public.verify(flipped, signature)


# --- EC arithmetic against a plain affine double-and-add oracle -----------

_P, _N = sig._P, sig._N
_G = (sig._GX, sig._GY)


def _oracle_add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if a[0] == b[0] and (a[1] + b[1]) % _P == 0:
        return None
    if a == b:
        slope = 3 * a[0] * a[0] * pow(2 * a[1], -1, _P) % _P
    else:
        slope = (b[1] - a[1]) * pow(b[0] - a[0], -1, _P) % _P
    x = (slope * slope - a[0] - b[0]) % _P
    return (x, (slope * (a[0] - x) - a[1]) % _P)


def _oracle_mul(k, point):
    result = None
    k %= _N
    while k:
        if k & 1:
            result = _oracle_add(result, point)
        point = _oracle_add(point, point)
        k >>= 1
    return result


_EDGE_SCALARS = [1, 2, 3, 15, 16, 17, _N - 1, _N - 2, 2**128, 2**128 - 1, sig._LAMBDA,
                 _N - sig._LAMBDA, 2**255, _N // 2]
_SCALARS = st.one_of(st.sampled_from(_EDGE_SCALARS), st.integers(min_value=1, max_value=_N - 1))


def test_endomorphism_constants():
    assert pow(sig._BETA, 3, _P) == 1 and pow(sig._LAMBDA, 3, _N) == 1
    assert _oracle_mul(sig._LAMBDA, _G) == (sig._BETA * _G[0] % _P, _G[1])


@given(st.one_of(st.sampled_from(_EDGE_SCALARS + [0]), st.integers(min_value=0, max_value=_N - 1)))
def test_glv_split_recombines_into_short_halves(k):
    k1, k2 = sig._glv_split(k)
    assert (k1 + k2 * sig._LAMBDA) % _N == k
    assert abs(k1) < 2**129 and abs(k2) < 2**129


def test_glv_split_produces_negative_halves():
    signs = {tuple(h < 0 for h in sig._glv_split(k)) for k in _EDGE_SCALARS}
    assert any(neg1 for neg1, _ in signs) and any(neg2 for _, neg2 in signs)


@pytest.mark.parametrize("k", _EDGE_SCALARS)
def test_edge_scalars_match_oracle(k):
    point = _oracle_mul(11, _G)
    assert sig._jac_to_affine(sig._comb_add(sig._INF, k)) == _oracle_mul(k, _G)
    assert sig._jac_to_affine(sig._glv_mul(k, point)) == _oracle_mul(k, point)


@settings(deadline=None)
@given(_SCALARS)
def test_comb_matches_oracle(k):
    assert sig._jac_to_affine(sig._comb_add(sig._INF, k)) == _oracle_mul(k, _G)


@settings(deadline=None)
@given(_SCALARS, _SCALARS)
def test_glv_mul_matches_oracle(k, base_scalar):
    point = _oracle_mul(base_scalar, _G)
    assert sig._jac_to_affine(sig._glv_mul(k, point)) == _oracle_mul(k, point)


@settings(deadline=None)
@given(_SCALARS, _SCALARS)
def test_joint_sum_matches_oracle(s, e):
    point = _oracle_mul(7, _G)
    joint = sig._jac_to_affine(sig._comb_add(sig._glv_mul(_N - e, point), s))
    assert joint == _oracle_add(_oracle_mul(s, _G), _oracle_mul(_N - e, point))


def test_joint_sum_cancelling_to_infinity():
    point = _oracle_mul(5, _G)  # s*G - e*P == O when s == 5e
    assert sig._comb_add(sig._glv_mul(_N - 3, point), 15)[2] == 0


def test_ecdh_matches_oracle(alice, bob):
    x = _oracle_mul(alice.private.secret, bob.public.point)[0]
    expected = hashlib.sha256(b"medchain/ecdh" + x.to_bytes(32, "big")).digest()
    assert shared_secret(alice.private, bob.public) == expected


def test_keys_and_signatures_are_byte_identical_to_pinned_output():
    digest = hashlib.sha256()
    for i in range(30):
        keypair = KeyPair.generate(f"k{i}")
        digest.update(keypair.public.data)
        digest.update(keypair.sign(bytes([i]) * 7).to_bytes())
    assert digest.hexdigest() == (
        "fb328748f2b1c1a1ca9235dd78e8c105f2e0d835d30012f0cb9119f366280851"
    )


@pytest.mark.parametrize(
    "r",
    [
        b"\x04" + b"\x11" * 32,  # bad prefix
        b"\x02" + (_P + 1).to_bytes(32, "big"),  # x out of range
        b"\x02" + (5).to_bytes(32, "big"),  # x**3 + 7 is not a square
        b"\x02" + b"\x01" * 31,  # short
    ],
)
def test_verify_rejects_malformed_nonce_point(alice, r):
    signature = alice.sign(b"m")
    assert not alice.public.verify(b"m", Signature(r=r, s=signature.s))


def test_verify_rejects_flipped_parity(alice):
    signature = alice.sign(b"m")
    flipped = bytes([signature.r[0] ^ 1]) + signature.r[1:]
    assert not alice.public.verify(b"m", Signature(r=flipped, s=signature.s))


def test_keys_memoize_their_derived_values(alice):
    assert alice.private.public_key() is alice.private.public_key()
    assert alice.private.public_key() == alice.public
    assert alice.public.point is alice.public.point
    assert alice.public.point == _oracle_mul(alice.private.secret, _G)
