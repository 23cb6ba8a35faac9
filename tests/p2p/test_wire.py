"""Wire codecs: round trips must re-hash to identical ids."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.blocks import build_block, make_genesis
from repro.chain.state import StateDB
from repro.chain.transactions import make_transfer
from repro.common.signatures import KeyPair
from repro.common.errors import ValidationError
from repro.common.serialize import canonical_bytes
from repro.p2p.wire import (
    block_from_wire,
    block_to_wire,
    header_from_wire,
    header_to_wire,
    payload_size,
    tx_from_wire,
    tx_to_wire,
)


@pytest.fixture()
def sample_block(alice):
    state = StateDB()
    state.credit(alice.address, 10**9)
    genesis = make_genesis(state.state_root())
    txs = [make_transfer(alice, "sink", 5, nonce=n) for n in range(3)]
    return build_block(
        parent=genesis,
        transactions=txs,
        state_root=state.state_root(),
        proposer="n0",
        timestamp_ms=1234,
    )


def test_tx_roundtrip_preserves_id(alice):
    tx = make_transfer(alice, "sink", 7, nonce=0)
    decoded = tx_from_wire(tx_to_wire(tx))
    assert decoded.tx_id == tx.tx_id
    decoded.validate()  # signature survives the hex round trip


def test_tx_wire_is_json_clean(alice):
    wire = tx_to_wire(make_transfer(alice, "sink", 7, nonce=0))
    canonical_bytes(wire)  # would raise on non-jsonable values


def test_header_roundtrip_preserves_hash(sample_block):
    header = sample_block.header
    decoded = header_from_wire(header_to_wire(header))
    assert decoded.block_hash() == header.block_hash()


def test_block_roundtrip_preserves_id(sample_block):
    decoded = block_from_wire(block_to_wire(sample_block))
    assert decoded.block_id == sample_block.block_id
    assert len(decoded.transactions) == 3
    decoded.validate_structure()


def test_block_with_forged_id_is_rejected(sample_block):
    wire = block_to_wire(sample_block)
    wire["block_id"] = "ab" * 32
    with pytest.raises(ValidationError):
        block_from_wire(wire)


def test_tampered_block_body_changes_decoded_id(sample_block):
    wire = block_to_wire(sample_block)
    wire["header"]["timestamp_ms"] = 9999
    with pytest.raises(ValidationError):  # claimed id no longer matches
        block_from_wire(wire)


@pytest.mark.parametrize("garbage", [None, 7, "x", [], {"header": {}}])
def test_malformed_wire_raises_validation_error(garbage):
    with pytest.raises(ValidationError):
        block_from_wire(garbage)
    with pytest.raises(ValidationError):
        tx_from_wire(garbage)


def test_payload_size_is_positive_and_tracks_content():
    small = payload_size({"a": 1})
    big = payload_size({"a": "x" * 1000})
    assert 0 < small < big


def test_float_in_wire_payload_is_a_validation_error(alice):
    wire = tx_to_wire(make_transfer(alice, "sink", 7, nonce=0))
    wire["payload"]["amount"] = 1.5
    with pytest.raises(ValidationError):
        tx_from_wire(wire)


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["0x", "0xzz", "0x" + "ab" * 33, "transfer", "call"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_TX_KEYS = [
    "sender",
    "nonce",
    "kind",
    "payload",
    "gas_limit",
    "max_fee_per_gas",
    "priority_fee_per_gas",
    "timestamp_ms",
    "public_key",
    "signature",
]
_MUTATION = st.tuples(
    st.sampled_from(["set", "delete", "set_payload", "delete_payload"]),
    st.sampled_from(_TX_KEYS + ["to", "amount", "extra"]),
    _JSON,
)
_GENUINE = tx_to_wire(make_transfer(KeyPair.generate("wire-fuzz"), "sink", 7, nonce=3))


@settings(deadline=None)
@given(st.lists(_MUTATION, min_size=1, max_size=4))
def test_mutated_wire_tx_raises_only_validation_error(mutations):
    wire = dict(_GENUINE, payload=dict(_GENUINE["payload"]))
    for action, key, value in mutations:
        payload = wire.get("payload")
        if action == "set":
            wire[key] = value
        elif action == "delete":
            wire.pop(key, None)
        elif isinstance(payload, dict) and action == "set_payload":
            payload[key] = value
        elif isinstance(payload, dict):
            payload.pop(key, None)
    try:
        tx = tx_from_wire(wire)
        assert len(tx.tx_id) == 64
        tx.validate()
    except ValidationError:
        pass
