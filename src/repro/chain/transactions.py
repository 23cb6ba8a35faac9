"""Signed blockchain transactions.

Every ledger mutation in the medical blockchain — money transfer, contract
deployment, contract call, data-set registration, access grant — travels as
a :class:`Transaction`.  The transaction hash covers every field except the
signature, and the signature covers the hash.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro.common.errors import ValidationError
from repro.common.hashing import hash_value
from repro.common.signatures import KeyPair, PublicKey, Signature

# Transaction kinds understood by the executor.
TX_TRANSFER = "transfer"
TX_DEPLOY = "deploy"
TX_CALL = "call"
VALID_TX_KINDS = frozenset({TX_TRANSFER, TX_DEPLOY, TX_CALL})

DEFAULT_GAS_LIMIT = 2_000_000


class VerifiedCache:
    """Bounded, thread-safe map from ``(signing digest, signature)`` to verdict.

    The signing digest covers the sender, the public key and every other
    field, so the verdict of :meth:`Transaction.verify_signature` is a pure
    function of the key: a hit can never accept a changed tx or signature,
    and a cached ``False`` can never reject a different, valid one.  At
    capacity the oldest entry is evicted (FIFO); an evicted tx is simply
    verified again.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._verdicts: Dict[Tuple[bytes, bytes], bool] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._verdicts)

    def get(self, key: Tuple[bytes, bytes]) -> Optional[bool]:
        return self._verdicts.get(key)

    def put(self, key: Tuple[bytes, bytes], verdict: bool) -> None:
        with self._lock:
            if key not in self._verdicts and len(self._verdicts) >= self.capacity:
                del self._verdicts[next(iter(self._verdicts))]
            self._verdicts[key] = verdict


# One per process: mempool admission fills it, block import then hits it.
VERIFIED_SIGNATURES = VerifiedCache(capacity=1 << 14)


@dataclass(frozen=True)
class Transaction:
    """An immutable signed transaction.

    ``payload`` must be canonical-JSON serializable without floats; its shape
    depends on ``kind``:

    - ``transfer``: ``{"to": address, "amount": int}``
    - ``deploy``:   ``{"contract": name, "source": str, "init": {...}}``
    - ``call``:     ``{"contract": contract_id, "method": str, "args": {...}}``
    """

    sender: str
    nonce: int
    kind: str
    payload: Dict[str, Any]
    gas_limit: int = DEFAULT_GAS_LIMIT
    # Fee-market bid (per gas unit): ``max_fee_per_gas`` is the absolute
    # ceiling the sender will pay, ``priority_fee_per_gas`` the tip offered
    # to the proposer on top of the pool's base fee.  Both are admission /
    # ordering signals for the mempool fee market; execution semantics are
    # fee-independent (see DESIGN.md §12).
    max_fee_per_gas: int = 0
    priority_fee_per_gas: int = 0
    timestamp_ms: int = 0
    public_key: bytes = b""
    signature: bytes = b""

    def signing_digest(self) -> bytes:
        """Hash over every field except the signature (memoized)."""
        cached = self.__dict__.get("_digest_memo")
        if cached is not None:
            return cached
        digest = hash_value(
            {
                "sender": self.sender,
                "nonce": self.nonce,
                "kind": self.kind,
                "payload": self.payload,
                "gas_limit": self.gas_limit,
                "max_fee_per_gas": self.max_fee_per_gas,
                "priority_fee_per_gas": self.priority_fee_per_gas,
                "timestamp_ms": self.timestamp_ms,
                "public_key": self.public_key,
            },
            allow_float=False,
        )
        object.__setattr__(self, "_digest_memo", digest)
        return digest

    def effective_fee_per_gas(self, base_fee: int = 0) -> int:
        """The per-gas price this bid realizes against ``base_fee``.

        Mirrors EIP-1559: the sender pays at most ``max_fee_per_gas``; of
        that, the proposer tip is ``priority_fee_per_gas`` capped by
        whatever headroom remains above the base fee.
        """
        return min(self.max_fee_per_gas, base_fee + self.priority_fee_per_gas)

    def effective_priority_fee(self, base_fee: int = 0) -> int:
        """Proposer tip realized against ``base_fee`` (never negative)."""
        return max(0, self.effective_fee_per_gas(base_fee) - base_fee)

    @property
    def tx_id(self) -> str:
        return self.signing_digest().hex()

    def signed_by(self, keypair: KeyPair) -> "Transaction":
        """Return a copy carrying the signer's public key and signature."""
        unsigned = replace(self, public_key=keypair.public.data, signature=b"")
        signature = keypair.sign(unsigned.signing_digest())
        return replace(unsigned, signature=signature.to_bytes())

    def verify_signature(self) -> bool:
        """True when signature is valid and matches the sender address.

        Verdicts are cached process-wide (see :data:`VERIFIED_SIGNATURES`),
        so every copy of a tx — decoded from gossip, from a block, or
        rebuilt by a test — is EC-verified at most once per process.
        """
        if not self.public_key or not self.signature:
            return False
        key = (self.signing_digest(), self.signature)
        verdict = VERIFIED_SIGNATURES.get(key)
        if verdict is None:
            verdict = self._verify_signature_uncached()
            VERIFIED_SIGNATURES.put(key, verdict)
        return verdict

    def _verify_signature_uncached(self) -> bool:
        try:
            public = PublicKey(self.public_key)
            signature = Signature.from_bytes(self.signature)
        except Exception:
            return False
        if public.address() != self.sender:
            return False
        return public.verify(self.signing_digest(), signature)

    def validate(self) -> None:
        """Structural validation; raises :class:`ValidationError`."""
        if self.kind not in VALID_TX_KINDS:
            raise ValidationError(f"unknown tx kind {self.kind!r}")
        if self.nonce < 0:
            raise ValidationError("nonce must be non-negative")
        if self.gas_limit <= 0:
            raise ValidationError("gas limit must be positive")
        if self.max_fee_per_gas < 0 or self.priority_fee_per_gas < 0:
            raise ValidationError("fee bids must be non-negative")
        if self.priority_fee_per_gas > self.max_fee_per_gas:
            raise ValidationError(
                "priority fee exceeds max fee "
                f"({self.priority_fee_per_gas} > {self.max_fee_per_gas})"
            )
        if not isinstance(self.payload, dict):
            raise ValidationError("payload must be a dict")
        if not self.verify_signature():
            raise ValidationError(f"bad signature on tx from {self.sender}")

    def estimated_size_bytes(self) -> int:
        """Wire-size estimate used by the network simulator (memoized)."""
        cached = self.__dict__.get("_size_memo")
        if cached is not None:
            return cached
        from repro.common.serialize import canonical_bytes

        size = len(canonical_bytes(self, allow_float=False)) + 64
        object.__setattr__(self, "_size_memo", size)
        return size


def make_transfer(
    keypair: KeyPair,
    to: str,
    amount: int,
    nonce: int,
    timestamp_ms: int = 0,
    max_fee_per_gas: int = 0,
    priority_fee_per_gas: int = 0,
) -> Transaction:
    """Build and sign a value-transfer transaction."""
    tx = Transaction(
        sender=keypair.address,
        nonce=nonce,
        kind=TX_TRANSFER,
        payload={"to": to, "amount": amount},
        max_fee_per_gas=max_fee_per_gas,
        priority_fee_per_gas=priority_fee_per_gas,
        timestamp_ms=timestamp_ms,
    )
    return tx.signed_by(keypair)


def make_deploy(
    keypair: KeyPair,
    contract_name: str,
    source: str,
    init: Optional[Dict[str, Any]] = None,
    nonce: int = 0,
    gas_limit: int = DEFAULT_GAS_LIMIT,
    timestamp_ms: int = 0,
    max_fee_per_gas: int = 0,
    priority_fee_per_gas: int = 0,
) -> Transaction:
    """Build and sign a contract-deployment transaction."""
    tx = Transaction(
        sender=keypair.address,
        nonce=nonce,
        kind=TX_DEPLOY,
        payload={"contract": contract_name, "source": source, "init": init or {}},
        gas_limit=gas_limit,
        max_fee_per_gas=max_fee_per_gas,
        priority_fee_per_gas=priority_fee_per_gas,
        timestamp_ms=timestamp_ms,
    )
    return tx.signed_by(keypair)


def make_call(
    keypair: KeyPair,
    contract_id: str,
    method: str,
    args: Optional[Dict[str, Any]] = None,
    nonce: int = 0,
    gas_limit: int = DEFAULT_GAS_LIMIT,
    timestamp_ms: int = 0,
    max_fee_per_gas: int = 0,
    priority_fee_per_gas: int = 0,
) -> Transaction:
    """Build and sign a contract-call transaction."""
    tx = Transaction(
        sender=keypair.address,
        nonce=nonce,
        kind=TX_CALL,
        payload={"contract": contract_id, "method": method, "args": args or {}},
        gas_limit=gas_limit,
        max_fee_per_gas=max_fee_per_gas,
        priority_fee_per_gas=priority_fee_per_gas,
        timestamp_ms=timestamp_ms,
    )
    return tx.signed_by(keypair)
