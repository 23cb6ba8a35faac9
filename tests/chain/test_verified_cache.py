"""The process-wide verified-signature cache: sound, bounded, and hit on import."""

from __future__ import annotations

import dataclasses

from hypothesis import given
from hypothesis import strategies as st

from repro.chain.blocks import build_block, make_genesis
from repro.chain.executor import ExecutionContext, TransferExecutor, apply_block_transactions
from repro.chain.state import StateDB
from repro.chain.transactions import VERIFIED_SIGNATURES, VerifiedCache, make_transfer
from repro.common.signatures import KeyPair, PublicKey
from repro.p2p.wire import block_from_wire, block_to_wire, tx_from_wire, tx_to_wire


def _count_verifies(monkeypatch):
    calls = []
    original = PublicKey.verify

    def counting(self, message, signature):
        calls.append(message)
        return original(self, message, signature)

    monkeypatch.setattr(PublicKey, "verify", counting)
    return calls


def test_cached_tx_does_not_vouch_for_flipped_signature():
    tx = make_transfer(KeyPair.generate("cache-flip"), "sink", 3, nonce=0)
    assert tx.verify_signature()
    signature = bytearray(tx.signature)
    signature[40] ^= 0x01
    assert not dataclasses.replace(tx, signature=bytes(signature)).verify_signature()
    assert tx.verify_signature()


def test_cached_tx_does_not_vouch_for_changed_payload():
    tx = make_transfer(KeyPair.generate("cache-payload"), "sink", 3, nonce=0)
    assert tx.verify_signature()
    forged = dataclasses.replace(tx, payload={"to": "thief", "amount": 3})
    assert forged.signature == tx.signature
    assert not forged.verify_signature()


def test_cached_false_never_fails_a_valid_signature():
    keypair = KeyPair.generate("cache-false")
    tx = make_transfer(keypair, "sink", 3, nonce=0)
    # Poison every nearby key first: a wrong signature on the same digest,
    # and the genuine signature on a different digest.
    wrong = dataclasses.replace(tx, signature=keypair.sign(b"other").to_bytes())
    assert not wrong.verify_signature()
    assert not dataclasses.replace(tx, nonce=1).verify_signature()
    assert tx.verify_signature()
    assert tx_from_wire(tx_to_wire(tx)).verify_signature()


def test_process_cache_stays_within_its_cap():
    assert len(VERIFIED_SIGNATURES) <= VERIFIED_SIGNATURES.capacity


@given(st.lists(st.integers(min_value=0, max_value=40), max_size=120))
def test_cache_is_fifo_bounded(inserts):
    cache = VerifiedCache(capacity=8)
    live = []
    for i in inserts:
        key = (bytes([i]), b"s")
        cache.put(key, i % 2 == 0)
        if key not in live:
            live.append(key)
        live = live[-8:]
        assert len(cache) <= 8
    assert len(cache) == len(live)
    for key in live:
        assert cache.get(key) == (key[0][0] % 2 == 0)


def test_importing_admitted_txs_makes_no_verify_calls(monkeypatch):
    keypair = KeyPair.generate("cache-import")
    state = StateDB()
    state.credit(keypair.address, 10**9)
    genesis = make_genesis(state.state_root())
    txs = [make_transfer(keypair, "sink", 1, nonce=n, timestamp_ms=77) for n in range(5)]
    calls = _count_verifies(monkeypatch)

    # Admission: each tx arrives as its own wire-decoded copy.
    for tx in txs:
        tx_from_wire(tx_to_wire(tx)).validate()
    assert len(calls) == len(txs)

    # Import: the block's txs are fresh instances decoded from the wire.
    block = build_block(
        parent=genesis,
        transactions=txs,
        state_root=state.state_root(),
        proposer="n0",
        timestamp_ms=1000,
    )
    imported = block_from_wire(block_to_wire(block))
    calls.clear()
    imported.validate_structure()
    receipts = apply_block_transactions(
        TransferExecutor(), state, imported.transactions, ExecutionContext(block_height=1)
    )
    assert all(receipt.success for receipt in receipts)
    assert calls == []
