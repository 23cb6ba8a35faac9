"""Optimistic parallel block execution from static read/write sets.

Serial block execution applies transactions one after another, which wastes
the multi-core budget the paper's transformed architecture is built around.
This module executes a block's transactions *optimistically in parallel*
while guaranteeing a state root and receipt list **bit-identical** to the
serial order:

1. **Derive.**  Each transaction's storage read/write set is derived
   statically — transfers from their sender/recipient/nonce account keys,
   contract calls by specializing the per-method templates of
   ``repro.analysis.rwsets`` with the call's arguments.  A transaction
   whose footprint cannot be proven (deploys, computed keys, unresolvable
   arguments) is *unknown* and acts as a serialization barrier.

2. **Plan.**  A conflict graph over the derived sets is levelized into
   *waves*: transaction *t* lands one level after the deepest earlier
   transaction it conflicts with (read-write, write-write, write-read, or
   prefix-scan overlap — same-sender chains always serialize because every
   transaction reads and writes its sender's account/nonce key).  Unknown
   transactions get a singleton wave all later transactions must follow.

3. **Speculate.**  Each wave's transactions execute concurrently on a
   ``repro.parallel`` backend, each against its own recording overlay forked
   from the wave-base state (which already contains every earlier wave's
   commits).  The *process* backend ships, per transaction, a pruned
   snapshot covering exactly its derived footprint, which is what makes
   shipping state affordable; a wave goes out as one batch per worker, and
   a batch that fails re-executes all its transactions serially.  Overlays
   record every key actually read.

4. **Validate and commit, in canonical order.**  A speculative result
   commits only if its *observed* reads are disjoint from the writes
   committed by earlier same-wave transactions (and, on the process
   backend, fully covered by the shipped snapshot); otherwise the
   transaction re-executes serially at its commit point.  Because the
   derived sets of non-``unknown`` methods are a sound over-approximation
   (see ``repro.analysis.rwsets``), a transaction never conflicts with one
   scheduled in an *earlier* wave; the scheduler still cross-checks that
   invariant at commit time and, should a derivation bug ever break it,
   discards the whole overlay and re-executes the block serially — so
   serial-equivalence never rests on the static analysis being right.

This module is imported lazily from ``repro.chain`` (PEP 562) because it
pulls in ``repro.analysis`` → ``repro.contracts``, which themselves import
``repro.chain`` submodules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.rwsets import MethodRWSet, read_write_sets
from repro.chain.executor import ExecutionContext, Executor, Receipt
from repro.chain.state import ACCOUNT_PREFIX, StateDB, StateOverlay
from repro.chain.transactions import TX_CALL, TX_TRANSFER, Transaction
from repro.common.errors import ChainError
from repro.common.hashing import sha256_hex
from repro.contracts.runtime import META_SLOT, STORAGE_PREFIX
from repro.obs.tracer import trace_span
from repro.parallel.executor import TaskFailure, TaskSpec, make_executor
from repro.sim.metrics import current_metrics

_SNAP_MISSING = object()


@dataclass(frozen=True)
class TxAccess:
    """Statically derived storage footprint of one transaction.

    ``unknown=True`` means the footprint could not be proven; the scheduler
    treats such a transaction as conflicting with everything (a wave
    barrier executed serially).
    """

    reads: FrozenSet[str] = frozenset()
    writes: FrozenSet[str] = frozenset()
    read_prefixes: FrozenSet[str] = frozenset()
    unknown: bool = False


def _account_key(address: str) -> str:
    return f"{ACCOUNT_PREFIX}/{address}"


def _slot_key(contract_id: Any, slot: str) -> str:
    return StateDB.contract_key(contract_id, STORAGE_PREFIX + slot)


def derive_tx_access(
    state: StateDB,
    tx: Transaction,
    rwset_cache: Optional[Dict[str, Dict[str, MethodRWSet]]] = None,
    contract_may_appear: bool = False,
) -> TxAccess:
    """Derive ``tx``'s storage footprint against the deployed code in ``state``.

    Every transaction reads *and* writes its sender's account key (the nonce
    check and bump), which is what serializes same-sender nonce chains.
    Transfers add the recipient's account key.  Calls resolve the deployed
    method's slot templates with the call arguments; deploys and anything
    unresolvable are ``unknown``.  ``rwset_cache`` (keyed by source digest)
    amortizes template derivation across blocks.

    ``contract_may_appear=True`` marks calls to a contract *absent from*
    ``state`` as unknown instead of cheap-failure: the scheduler sets it for
    every transaction after a block's first barrier, because a deploy
    earlier in the same block may create the contract mid-block.
    """
    sender_key = _account_key(tx.sender)
    if tx.kind == TX_TRANSFER:
        keys = {sender_key}
        to = tx.payload.get("to")
        if isinstance(to, str):
            keys.add(_account_key(to))
        frozen = frozenset(keys)
        return TxAccess(reads=frozen, writes=frozen)
    if tx.kind != TX_CALL:
        return TxAccess(unknown=True)  # deploys, unknown kinds: barrier
    contract = tx.payload.get("contract", "")
    method = tx.payload.get("method", "")
    args = tx.payload.get("args", {}) or {}
    meta_key = StateDB.contract_key(contract, META_SLOT)
    base_reads = frozenset({sender_key, meta_key})
    base_writes = frozenset({sender_key})
    meta = state.get(meta_key)
    if not isinstance(meta, dict):
        if contract_may_appear:
            # An earlier transaction in this block (a deploy barrier) may
            # create the contract, so "call fails cheaply" cannot be
            # assumed and the true footprint is unknowable pre-execution.
            return TxAccess(unknown=True)
        # Unknown contract: the call fails after reading only the metadata
        # slot and bumping the nonce.
        return TxAccess(reads=base_reads, writes=base_writes)
    source = meta.get("source", "")
    method_sets = _rwsets_for(source, rwset_cache)
    method_set = method_sets.get(method) if isinstance(method, str) else None
    if method_set is None:
        # Missing/private method: the VM rejects the call before any
        # storage operation, so the footprint is just metadata + nonce.
        return TxAccess(reads=base_reads, writes=base_writes)
    if not isinstance(args, dict):
        return TxAccess(unknown=True)
    resolved = method_set.resolve(args)
    if resolved is None:
        return TxAccess(unknown=True)
    return TxAccess(
        reads=base_reads | {_slot_key(contract, s) for s in resolved.reads},
        writes=base_writes | {_slot_key(contract, s) for s in resolved.writes},
        read_prefixes=frozenset(
            _slot_key(contract, p) for p in resolved.read_prefixes
        ),
    )


def _rwsets_for(
    source: str,
    cache: Optional[Dict[str, Dict[str, MethodRWSet]]],
) -> Dict[str, MethodRWSet]:
    if cache is None:
        return read_write_sets(source)
    key = sha256_hex(source.encode("utf-8"))
    sets = cache.get(key)
    if sets is None:
        sets = read_write_sets(source)
        cache[key] = sets
    return sets


def plan_waves(accesses: Sequence[TxAccess]) -> List[List[int]]:
    """Levelize transactions into waves of pairwise non-conflicting indexes.

    Incremental single pass: a transaction's level is one past the deepest
    earlier transaction it conflicts with.  Unknown transactions become
    singleton barrier waves.  Within each wave, indexes stay in canonical
    order (the commit order).
    """
    levels: List[int] = []
    writer_level: Dict[str, int] = {}
    reader_level: Dict[str, int] = {}
    prefix_level: Dict[str, int] = {}
    barrier = 0
    deepest = 0
    for access in accesses:
        if access.unknown:
            level = deepest + 1
            barrier = level
        else:
            level = barrier + 1
            for key in access.reads:
                level = max(level, writer_level.get(key, 0) + 1)
            for key in access.writes:
                level = max(
                    level,
                    writer_level.get(key, 0) + 1,
                    reader_level.get(key, 0) + 1,
                )
                for prefix, depth in prefix_level.items():
                    if key.startswith(prefix):
                        level = max(level, depth + 1)
            for prefix in access.read_prefixes:
                for key, depth in writer_level.items():
                    if key.startswith(prefix):
                        level = max(level, depth + 1)
            for key in access.reads:
                reader_level[key] = max(reader_level.get(key, 0), level)
            for key in access.writes:
                writer_level[key] = max(writer_level.get(key, 0), level)
            for prefix in access.read_prefixes:
                prefix_level[prefix] = max(prefix_level.get(prefix, 0), level)
        levels.append(level)
        deepest = max(deepest, level)
    waves: Dict[int, List[int]] = {}
    for index, level in enumerate(levels):
        waves.setdefault(level, []).append(index)
    return [waves[level] for level in sorted(waves)]


class _RecordingOverlay(StateOverlay):
    """Overlay that records every key (and prefix) actually read.

    Observed reads are what commit-time validation compares against earlier
    commits — the runtime ground truth the static sets only approximate.
    Deletes record as reads too: a delete's effect depends on whether the
    key existed, so an earlier same-wave write to it must invalidate the
    speculation.
    """

    def __init__(self, parent: StateDB):
        super().__init__(parent)
        self.observed_reads: Set[str] = set()
        self.observed_prefixes: Set[str] = set()

    def get(self, key: str, default: Any = None) -> Any:
        self.observed_reads.add(key)
        return super().get(key, default)

    def contains(self, key: str) -> bool:
        self.observed_reads.add(key)
        return super().contains(key)

    def delete(self, key: str) -> None:
        self.observed_reads.add(key)
        super().delete(key)

    def keys_with_prefix(self, prefix: str) -> List[str]:
        self.observed_prefixes.add(prefix)
        return super().keys_with_prefix(prefix)


@dataclass
class _SpecOutcome:
    """One transaction's speculative effect, as plain shippable data."""

    receipt: Receipt
    writes: Dict[str, Any]
    deletes: List[str]
    observed_reads: Set[str]
    observed_prefixes: Set[str]


def _speculate(
    executor: Executor,
    base: StateDB,
    tx: Transaction,
    context: ExecutionContext,
) -> _SpecOutcome:
    """Execute one transaction on a recording overlay and harvest its delta."""
    overlay = _RecordingOverlay(base)
    receipt = executor.apply(overlay, tx, context)
    writes, deletes = overlay.local_delta()
    return _SpecOutcome(
        receipt=receipt,
        writes=writes,
        deletes=deletes,
        observed_reads=set(overlay.observed_reads),
        observed_prefixes=set(overlay.observed_prefixes),
    )


# Per-process executor instances for the process backend, keyed by executor
# class (shipped by reference, so it must be constructible with no
# arguments).
_WORKER_EXECUTORS: Dict[type, Executor] = {}


def _speculate_remote(
    executor_cls: type,
    batch: Sequence[Tuple[Transaction, Dict[str, Any]]],
    context: ExecutionContext,
) -> List[_SpecOutcome]:
    """Process-backend task: speculate each ``(tx, pruned snapshot)`` pair."""
    executor = _WORKER_EXECUTORS.get(executor_cls)
    if executor is None:
        executor = executor_cls()
        _WORKER_EXECUTORS[executor_cls] = executor
    return [
        _speculate(executor, StateDB(snapshot), tx, context)
        for tx, snapshot in batch
    ]


def _build_snapshot(
    state: StateDB, access: TxAccess
) -> Tuple[Dict[str, Any], FrozenSet[str]]:
    """Prune ``state`` down to a transaction's derived footprint.

    Returns ``(snapshot, universe)``: the snapshot holds the covered keys
    that exist (shipped by reference — the process pool's pickling is the
    copy boundary), while the universe is every *covered* key, present or
    absent.  Coverage validation must use the universe: a key inside it but
    missing from the snapshot is genuinely absent in ``state``, so the
    worker seeing "no value" is correct.  Prefix reads ship every key
    currently under the prefix.
    """
    universe = set(access.reads) | set(access.writes)
    for prefix in access.read_prefixes:
        universe.update(state.keys_with_prefix(prefix))
    snapshot: Dict[str, Any] = {}
    for key in universe:
        value = state.get(key, _SNAP_MISSING)
        if value is not _SNAP_MISSING:
            snapshot[key] = value
    return snapshot, frozenset(universe)


def _covered(
    outcome: _SpecOutcome,
    shipped_keys: FrozenSet[str],
    shipped_prefixes: FrozenSet[str],
) -> bool:
    """Did the pruned snapshot cover everything the worker actually read?

    A read outside the shipped universe saw "absent" where the real state
    may have a value, so the speculation is untrustworthy.
    """
    for key in outcome.observed_reads:
        if key not in shipped_keys and not any(
            key.startswith(p) for p in shipped_prefixes
        ):
            return False
    for prefix in outcome.observed_prefixes:
        if not any(prefix.startswith(p) for p in shipped_prefixes):
            return False
    return True


class _OrderingViolation(ChainError):
    """A commit-time cross-wave check failed; the block must rerun serially."""


class BlockScheduler:
    """Wave-based optimistic parallel executor for whole blocks.

    Owns a reusable ``repro.parallel`` worker pool (``thread``, ``process``,
    or ``serial`` — the last exercises the full speculate/validate path
    without concurrency, useful as a reference).  ``executor`` must follow
    the chain ``Executor`` protocol; for the process backend its *class* is
    shipped to workers and must be constructible with no arguments.

    Not thread-safe: one scheduler serves one node's block pipeline.
    """

    def __init__(
        self,
        executor: Executor,
        backend: str = "thread",
        max_workers: Optional[int] = None,
        min_wave_size: int = 2,
    ):
        self.executor = executor
        self.backend = backend
        self.min_wave_size = max(2, min_wave_size)
        self._pool = make_executor(backend, max_workers)
        self._rwset_cache: Dict[str, Dict[str, MethodRWSet]] = {}
        self.stats: Dict[str, int] = {
            "blocks": 0,
            "txs": 0,
            "txs_speculated": 0,
            "txs_parallel_committed": 0,
            "conflicts": 0,
            "serial_fallbacks": 0,
            "unknown_txs": 0,
            "waves": 0,
            "block_aborts": 0,
        }

    # -- lifecycle ---------------------------------------------------------
    def shutdown(self) -> None:
        self._pool.shutdown()

    def __enter__(self) -> "BlockScheduler":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- execution ---------------------------------------------------------
    def execute_block(
        self,
        base_state: StateDB,
        transactions: Sequence[Transaction],
        context: ExecutionContext,
        validate: bool = False,
    ) -> Tuple[StateOverlay, List[Receipt]]:
        """Execute a block against an overlay of ``base_state``.

        Drop-in replacement for the serial fork-and-apply loop: returns the
        same ``(overlay, receipts)`` pair with a bit-identical state root
        and receipt list.  ``validate=True`` structurally validates every
        transaction up front (the gateway path does this; consensus nodes
        validate on gossip ingress instead).
        """
        if validate:
            for tx in transactions:
                tx.validate()
        metrics = current_metrics()
        with trace_span(
            "chain.schedule_block",
            height=context.block_height,
            node=context.node_name,
            txs=len(transactions),
            backend=self.backend,
        ) as span:
            accesses: List[TxAccess] = []
            barrier_seen = False
            for tx in transactions:
                access = derive_tx_access(
                    base_state,
                    tx,
                    self._rwset_cache,
                    contract_may_appear=barrier_seen,
                )
                barrier_seen = barrier_seen or access.unknown
                accesses.append(access)
            waves = plan_waves(accesses)
            try:
                overlay, receipts = self._run_waves(
                    base_state, transactions, accesses, waves, context, span
                )
            except _OrderingViolation:
                # Static derivation let an actual cross-wave conflict
                # through (a deriver bug, not a user-visible condition):
                # discard everything and fall back to plain serial.
                self.stats["block_aborts"] += 1
                metrics.add("parallel_exec_block_aborts")
                span.set_attr("aborted", True)
                overlay, receipts = self._serial_block(
                    base_state, transactions, context
                )
            self.stats["blocks"] += 1
            self.stats["txs"] += len(transactions)
            self.stats["waves"] += len(waves)
            unknown = sum(1 for access in accesses if access.unknown)
            self.stats["unknown_txs"] += unknown
            metrics.add("parallel_exec_blocks")
            metrics.add("parallel_exec_txs", len(transactions))
            metrics.add("parallel_exec_waves", len(waves))
            span.set_attr("waves", len(waves))
            span.set_attr("unknown_txs", unknown)
        return overlay, receipts

    def _serial_block(
        self,
        base_state: StateDB,
        transactions: Sequence[Transaction],
        context: ExecutionContext,
    ) -> Tuple[StateOverlay, List[Receipt]]:
        overlay = base_state.fork()
        receipts = [
            self.executor.apply(overlay, tx, context) for tx in transactions
        ]
        return overlay, receipts

    def _run_waves(
        self,
        base_state: StateDB,
        transactions: Sequence[Transaction],
        accesses: Sequence[TxAccess],
        waves: Sequence[Sequence[int]],
        context: ExecutionContext,
        span: Any,
    ) -> Tuple[StateOverlay, List[Receipt]]:
        metrics = current_metrics()
        state = base_state.fork()
        receipts: List[Optional[Receipt]] = [None] * len(transactions)
        # Highest committed writer index per key, across all waves — the
        # cross-wave ordering cross-check (see _check_ordering).
        writer_index: Dict[str, int] = {}
        parallel_committed = conflicts = fallbacks = speculated = 0
        try:
            for wave in waves:
                pooled = (
                    len(wave) >= self.min_wave_size
                    and not any(accesses[i].unknown for i in wave)
                )
                outcomes: Dict[int, Any] = {}
                shipped: Dict[int, Tuple[FrozenSet[str], FrozenSet[str]]] = {}
                if pooled:
                    speculated += len(wave)
                    outcomes = self._speculate_wave(
                        state, transactions, accesses, wave, context, shipped
                    )
                # Canonical-order commit with validation.
                wave_writes: Set[str] = set()
                for index in wave:
                    outcome = outcomes.get(index)
                    ok = outcome is not None and not isinstance(
                        outcome, TaskFailure
                    )
                    if ok and index in shipped:
                        keys, prefixes = shipped[index]
                        ok = _covered(outcome, keys, prefixes)
                    if ok and _wave_conflict(outcome, wave_writes):
                        ok = False
                        conflicts += 1
                    if not ok:
                        if outcome is not None:  # a speculation was discarded
                            fallbacks += 1
                        outcome = _speculate(
                            self.executor, state, transactions[index], context
                        )
                    elif pooled:
                        parallel_committed += 1
                    self._check_ordering(index, outcome, writer_index)
                    self._commit(state, outcome, index, writer_index)
                    wave_writes.update(outcome.writes)
                    wave_writes.update(outcome.deletes)
                    receipts[index] = outcome.receipt
        except _OrderingViolation:
            state.discard()
            raise
        self.stats["txs_speculated"] += speculated
        self.stats["txs_parallel_committed"] += parallel_committed
        self.stats["conflicts"] += conflicts
        self.stats["serial_fallbacks"] += fallbacks
        metrics.add("parallel_exec_speculated", speculated)
        metrics.add("parallel_exec_committed", parallel_committed)
        metrics.add("parallel_exec_conflicts", conflicts)
        metrics.add("parallel_exec_serial_fallbacks", fallbacks)
        span.set_attr("txs_parallel_committed", parallel_committed)
        span.set_attr("conflicts", conflicts)
        span.set_attr("serial_fallbacks", fallbacks)
        return state, receipts  # type: ignore[return-value]

    def _speculate_wave(
        self,
        state: StateDB,
        transactions: Sequence[Transaction],
        accesses: Sequence[TxAccess],
        wave: Sequence[int],
        context: ExecutionContext,
        shipped: Dict[int, Tuple[FrozenSet[str], FrozenSet[str]]],
    ) -> Dict[int, Any]:
        if self.backend != "process":
            tasks = [
                TaskSpec(
                    key=transactions[index].tx_id,
                    fn=_speculate,
                    args=(self.executor, state, transactions[index], context),
                )
                for index in wave
            ]
            return dict(zip(wave, self._pool.map_tasks(tasks)))
        # One task per worker, not per transaction: a round trip to a worker
        # costs about as much as executing a small call.
        batch = []
        for index in wave:
            access = accesses[index]
            snapshot, universe = _build_snapshot(state, access)
            shipped[index] = (universe, access.read_prefixes)
            batch.append((transactions[index], snapshot))
        size = -(-len(wave) // self._pool.max_workers)
        starts = range(0, len(wave), size)
        tasks = [
            TaskSpec(
                key=transactions[wave[start]].tx_id,
                fn=_speculate_remote,
                args=(type(self.executor), batch[start:start + size], context),
            )
            for start in starts
        ]
        outcomes: Dict[int, Any] = {}
        for start, result in zip(starts, self._pool.map_tasks(tasks)):
            failed = isinstance(result, TaskFailure)
            for offset, index in enumerate(wave[start:start + size]):
                outcomes[index] = result if failed else result[offset]
        return outcomes

    @staticmethod
    def _check_ordering(
        index: int,
        outcome: _SpecOutcome,
        writer_index: Dict[str, int],
    ) -> None:
        """Cross-wave invariant: nothing tx ``index`` touched was committed
        by a *later-index* transaction in an earlier wave.

        The sound over-approximation of the derived sets makes this
        impossible; if it ever fires, re-execution at the commit point
        cannot help (the stale write is already in the state), so the whole
        block aborts to the serial path.
        """
        for key in outcome.observed_reads:
            if writer_index.get(key, -1) > index:
                raise _OrderingViolation(key)
        for key in list(outcome.writes) + outcome.deletes:
            if writer_index.get(key, -1) > index:
                raise _OrderingViolation(key)
        for prefix in outcome.observed_prefixes:
            for key, writer in writer_index.items():
                if writer > index and key.startswith(prefix):
                    raise _OrderingViolation(key)

    @staticmethod
    def _commit(
        state: StateDB,
        outcome: _SpecOutcome,
        index: int,
        writer_index: Dict[str, int],
    ) -> None:
        for key in outcome.deletes:
            state.delete(key)
            writer_index[key] = max(writer_index.get(key, -1), index)
        for key in sorted(outcome.writes):
            state.set(key, outcome.writes[key])
            writer_index[key] = max(writer_index.get(key, -1), index)


def _wave_conflict(outcome: _SpecOutcome, wave_writes: Set[str]) -> bool:
    """Did this speculation read anything an earlier same-wave commit wrote?"""
    if not wave_writes:
        return False
    if not outcome.observed_reads.isdisjoint(wave_writes):
        return True
    for prefix in outcome.observed_prefixes:
        for key in wave_writes:
            if key.startswith(prefix):
                return True
    return False
