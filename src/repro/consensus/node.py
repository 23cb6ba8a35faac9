"""A full blockchain node: mempool, gossip, mining/proposal loop, execution.

This implements the *un-transformed* commercial-blockchain behaviour the
paper starts from (section I): every transaction is broadcast to all
participants, every node re-executes every smart contract, and consensus
requires the whole network to agree on each ledger modification.  The
duplicated work is charged to the metrics registry per node, so experiments
can quantify exactly what the transformed architecture (``repro.core``)
saves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set

from repro.chain.blocks import Block, build_block
from repro.chain.executor import ContractEvent, ExecutionContext, Receipt
from repro.chain.mempool import (
    DUPLICATE,
    AdmissionResult,
    Mempool,
    MempoolConfig,
)
from repro.chain.state import StateDB
from repro.chain.store import ChainStore
from repro.chain.transactions import Transaction
from repro.common.errors import ValidationError
from repro.consensus.base import ConsensusEngine
from repro.obs.tracer import trace_span
from repro.contracts.runtime import ContractExecutor
from repro.sim.kernel import EventHandle, Kernel, Process
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Message, Network

EventSubscriber = Callable[[ContractEvent], None]


@dataclass
class NodeConfig:
    """Tunables for a blockchain node."""

    max_txs_per_block: int = 200
    mine_empty: bool = False
    rebroadcast_txs: bool = True
    rebroadcast_blocks: bool = True
    # Per-block states older than this many blocks below the head are
    # pruned, so state memory is bounded by chain *width* within the
    # window rather than chain *length*.  Longest-chain reorgs deeper than
    # the window cannot be re-validated (their parent states are gone);
    # 0 disables pruning.  Matches the fork-choice finality assumption of
    # ChainStore.  Caveat: states retained inside the window (the
    # canonical boundary and recent fork tips) may still reference pruned
    # ancestor *layers* through their copy-on-write parent chains until
    # they are collapsed or age out, so reclamation of a pruned layer can
    # lag by up to a window; the retained chain below the boundary is
    # bounded by state_collapse_interval layers (each the size of one
    # block's write-set) plus one shared collapsed base, so the lag is
    # bounded, never proportional to chain length.
    state_prune_window: int = 64
    # The window-boundary state is collapsed into a standalone base only
    # once its overlay chain is at least this deep, so the O(state-size)
    # collapse cost is paid once per interval — amortized
    # O(state/interval + write-set) per block — instead of rebuilding the
    # full state dict on every new head.  1 collapses on every block.
    state_collapse_interval: int = 16
    # Cap on the ChainStore orphan buffer (oldest-first eviction).
    max_orphan_blocks: int = 512
    # Optimistic parallel block execution (repro.chain.scheduler): derive
    # static read/write sets, execute non-conflicting transactions
    # concurrently, validate observed reads at commit.  Off by default —
    # results are bit-identical to serial execution either way, so this is
    # purely a throughput knob.  ``parallel_backend`` is one of "serial"
    # (full speculate/validate path without concurrency), "thread", or
    # "process" (real cores; the win for CPU-bound contract code).
    parallel_execution: bool = False
    parallel_backend: str = "thread"
    # Worker pool size (None = available cores) and the smallest wave worth
    # dispatching to the pool instead of executing inline.
    parallel_max_workers: Optional[int] = None
    parallel_min_wave_size: int = 2
    # Fee-market mempool policy (repro.chain.mempool.MempoolConfig): price
    # priority, replace-by-fee, capacity eviction, watermark shedding, and
    # per-account rate limiting.  None uses permissive defaults that admit
    # unfee'd development traffic FIFO-style.
    mempool: Optional[MempoolConfig] = None
    # Peer-to-peer settings (repro.p2p.P2PConfig).  When a P2PService is
    # attached, tx/block dissemination switches from the sim network's
    # full-body flood to announce-by-hash gossip with fetch-on-miss, and
    # missing ancestors are repaired by headers-first sync instead of
    # point get_block requests.  None keeps the legacy flood behaviour.
    p2p: Optional[Any] = None


class BlockchainNode(Process):
    """One participant in the medical blockchain network (Figure 2)."""

    def __init__(
        self,
        kernel: Kernel,
        network: Network,
        name: str,
        genesis: Block,
        genesis_state: StateDB,
        consensus: ConsensusEngine,
        executor: Optional[ContractExecutor] = None,
        metrics: Optional[MetricsRegistry] = None,
        config: Optional[NodeConfig] = None,
    ):
        super().__init__(kernel, name)
        self.network = network
        self.consensus = consensus
        self.executor = executor or ContractExecutor()
        self.metrics = metrics or MetricsRegistry()
        self.config = config or NodeConfig()
        self.store = ChainStore(genesis, max_orphans=self.config.max_orphan_blocks)
        self.mempool = Mempool(
            config=self.config.mempool,
            time_source=lambda: self.now,
            metrics=self.metrics,
            scope=name,
        )
        self._orphan_evictions_reported = 0
        self._states: Dict[str, StateDB] = {genesis.block_id: genesis_state.copy()}
        self._block_receipts: Dict[str, List[Receipt]] = {genesis.block_id: []}
        self._receipts_by_tx: Dict[str, Receipt] = {}
        self._seen_blocks: Set[str] = {genesis.block_id}
        # Blocks waiting for an ancestor we are back-filling via get_block.
        self._pending_blocks: Dict[str, List[Block]] = {}
        self._requested_blocks: Set[str] = set()
        self._emitted_blocks: Set[str] = {genesis.block_id}
        self._event_subscribers: List[EventSubscriber] = []
        self._tx_submit_times: Dict[str, float] = {}
        self._proposal_handle: Optional[EventHandle] = None
        self._round_start: Optional[float] = None
        self._started = False
        self._scheduler = None  # built lazily when parallel_execution is on
        self._p2p = None  # P2PService, attached via attach_p2p
        self.events: List[ContractEvent] = []
        network.register(name, self._on_message)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Begin participating in consensus."""
        self._started = True
        self._plan_round()

    def stop(self) -> None:
        self._started = False
        self._cancel_round()
        if self._scheduler is not None:
            self._scheduler.shutdown()
            self._scheduler = None

    def _block_scheduler(self):
        """The node's parallel block scheduler (lazy; owns a worker pool)."""
        if self._scheduler is None:
            from repro.chain.scheduler import BlockScheduler

            self._scheduler = BlockScheduler(
                self.executor,
                backend=self.config.parallel_backend,
                max_workers=self.config.parallel_max_workers,
                min_wave_size=self.config.parallel_min_wave_size,
            )
        return self._scheduler

    # -- public API --------------------------------------------------------
    @property
    def head(self) -> Block:
        return self.store.head

    @property
    def state(self) -> StateDB:
        """World state at the canonical head."""
        return self._states[self.store.head.block_id]

    def receipt(self, tx_id: str) -> Optional[Receipt]:
        return self._receipts_by_tx.get(tx_id)

    def subscribe_events(self, subscriber: EventSubscriber) -> None:
        """Register a contract-event callback (the monitor node hook, Fig. 3)."""
        self._event_subscribers.append(subscriber)

    def attach_p2p(self, service) -> None:
        """Route this node's dissemination through a ``P2PService``.

        Gossip becomes announce-by-hash (ids to ``fanout`` peers, bodies
        fetched once on miss) instead of the full-body network flood, and
        missing-ancestor repair goes through headers-first sync.
        """
        self._p2p = service

    # -- dissemination -------------------------------------------------------
    def _broadcast_tx(self, tx: Transaction) -> None:
        if self._p2p is not None:
            self._p2p.announce_tx(tx)
        else:
            self.network.broadcast(
                self.name, "tx", tx, size_bytes=tx.estimated_size_bytes()
            )

    def _broadcast_block(self, block: Block) -> None:
        if self._p2p is not None:
            self._p2p.announce_block(block)
        else:
            self.network.broadcast(
                self.name, "block", block, size_bytes=block.estimated_size_bytes()
            )

    def submit_tx(self, tx: Transaction) -> AdmissionResult:
        """Inject a transaction locally and gossip it to every peer.

        Returns the pool's typed admission outcome (truthy iff the pool
        now holds the transaction).  Rejected transactions are *not*
        announced to peers — an underpriced or rate-limited bid dies
        here instead of consuming network-wide gossip bandwidth — and
        are *forgotten*: the duplicate check is answered by current
        pool membership and committed receipts, never by a
        first-contact set, so a bid refused under transient overload
        (RATE_LIMITED, POOL_FULL) can be resubmitted and admitted once
        pressure clears.
        """
        tx.validate()
        if tx.tx_id in self._receipts_by_tx:
            return AdmissionResult(
                DUPLICATE, tx_id=tx.tx_id, reason="already committed"
            )
        added = self._admit_tx(tx)
        if added:
            self._tx_submit_times.setdefault(tx.tx_id, self.now)
            self._broadcast_tx(tx)
            if self._started and self._proposal_handle is None:
                self._plan_round()
        return added

    def _admit_tx(self, tx: Transaction) -> AdmissionResult:
        """Offer a transaction to the pool with the head account nonce."""
        return self.mempool.add(tx, account_nonce=self.state.nonce(tx.sender))

    def call_view(
        self,
        contract_id: str,
        method: str,
        args: Optional[Dict[str, Any]] = None,
        caller: str = "",
    ) -> Any:
        """Read-only contract call against this node's head state."""
        return self.executor.execute_view(
            self.state,
            contract_id,
            method,
            args,
            caller=caller or self.name,
            context=ExecutionContext(
                block_height=self.head.height,
                timestamp_ms=int(self.now * 1000),
                node_name=self.name,
            ),
        )

    # -- network ------------------------------------------------------------
    def _on_message(self, sender: str, message: Message) -> None:
        if message.kind == "tx":
            self._handle_gossip_tx(message.payload)
        elif message.kind == "block":
            self._handle_gossip_block(message.payload, sender)
        elif message.kind == "get_block":
            self._handle_get_block(message.payload, sender)
        elif message.kind.startswith("p2p.") and self._p2p is not None:
            # SimTransport shares this node's network endpoint; hand its
            # request/response envelopes to the p2p transport.
            self._p2p.transport.handle_message(sender, message)

    def _handle_gossip_tx(self, tx: Transaction) -> None:
        if tx.tx_id in self.mempool or tx.tx_id in self._receipts_by_tx:
            return
        try:
            tx.validate()
        except ValidationError:
            return
        added = self._admit_tx(tx)
        # Only transactions this node actually pooled are relayed: spam the
        # fee market refused (underpriced, rate-limited, shed) dies at the
        # first hop instead of propagating across the network.  Refusals
        # are not remembered, so a re-announcement after a transient
        # shedding or rate-limiting episode gets a fresh admission
        # decision instead of being dropped forever.
        if added and self.config.rebroadcast_txs:
            self._broadcast_tx(tx)
        if added and self._started and self._proposal_handle is None:
            self._plan_round()

    def _handle_gossip_block(self, block: Block, sender: str = "") -> None:
        if block.block_id in self._seen_blocks:
            return
        self._seen_blocks.add(block.block_id)
        parent_id = block.header.parent_hash.hex()
        if parent_id not in self._states:
            if parent_id in self.store and self._recover_states(parent_id):
                # Parent block known but its state was pruned or skipped
                # (e.g. after a restart): re-executing the gap recovers it,
                # so the block need not be rejected.
                self._ingest_block(block)
                return
            # We missed an ancestor (e.g. during a partition): buffer the
            # block, then back-fill the gap — headers-first sync when p2p
            # is attached, a point get_block request from the sender on
            # the legacy flood path.
            self._pending_blocks.setdefault(parent_id, []).append(block)
            self.metrics.add("blocks_waiting_parent", 1, scope=self.name)
            if self._p2p is not None:
                self._p2p.request_backfill()
            elif sender and parent_id not in self._requested_blocks:
                self._requested_blocks.add(parent_id)
                self.network.send(self.name, sender, "get_block", parent_id)
            return
        self._ingest_block(block)

    def _recover_states(self, block_id: str, max_depth: Optional[int] = None) -> bool:
        """Rebuild the post-state of a stored block by re-executing forward.

        Walks parent links back to the nearest ancestor whose state is
        still held (bounded by the prune window — states older than that
        are gone by design), then verifies and re-executes each block on
        the path.  Returns True when ``block_id``'s state is available
        afterwards.
        """
        if block_id in self._states:
            return True
        if max_depth is None:
            max_depth = self.config.state_prune_window or len(self.store)
        path: List[Block] = []
        current_id = block_id
        while current_id not in self._states:
            if current_id not in self.store or len(path) >= max_depth:
                return False  # gap reaches below the retained window
            block = self.store.get(current_id)
            path.append(block)
            current_id = block.header.parent_hash.hex()
        for block in reversed(path):
            if not self._verify_and_execute(block):
                return False
            self.metrics.add("states_recovered", 1, scope=self.name)
        return True

    def _ingest_block(self, block: Block) -> None:
        """Verify, execute, adopt, and drain any blocks waiting on this one."""
        if not self._verify_and_execute(block):
            return
        old_head = self.store.head
        self.store.add(block)
        self._report_orphan_evictions()
        if self.config.rebroadcast_blocks:
            self._broadcast_block(block)
        if self.store.head.block_id != old_head.block_id:
            self._on_new_head(old_head)
        for child in self._pending_blocks.pop(block.block_id, []):
            self._ingest_block(child)

    def _handle_get_block(self, block_id: str, requester: str) -> None:
        """Serve a back-fill request from a peer catching up."""
        if not isinstance(block_id, str) or block_id not in self.store:
            return
        block = self.store.get(block_id)
        self.network.send(
            self.name,
            requester,
            "block",
            block,
            size_bytes=block.estimated_size_bytes(),
        )

    # -- verification (the duplicated computing) -----------------------------
    def _verify_and_execute(self, block: Block) -> bool:
        """Verify proof and re-execute the block's transactions.

        Every node does this for every block — the per-node gas charged here
        is the paper's duplicated smart-contract computation.
        """
        with trace_span(
            "consensus.verify_block",
            node=self.name,
            engine=self.consensus.name,
            height=block.height,
            txs=len(block.transactions),
            sim_time=self.now,
        ) as span:
            valid = self._verify_and_execute_inner(block)
            span.set_attr("valid", valid)
            state = self._states.get(block.block_id)
            if state is not None:
                self._set_state_span_attrs(span, state)
        return valid

    def _verify_and_execute_inner(self, block: Block) -> bool:
        parent_id = block.header.parent_hash.hex()
        parent_state = self._states.get(parent_id)
        if parent_state is None:
            # The parent block may be stored with its state pruned/skipped;
            # re-execute the gap rather than silently rejecting the block.
            if parent_id in self.store and self._recover_states(parent_id):
                parent_state = self._states[parent_id]
            else:
                self.metrics.add(
                    "blocks_missing_parent_state", 1, scope=self.name
                )
                return False
        parent = self.store.get(parent_id)
        try:
            block.validate_structure()
        except ValidationError:
            return False
        if not self.consensus.verify(block, parent):
            return False
        state, receipts = self._execute_transactions(
            parent_state, block.transactions, block
        )
        if state.state_root() != block.header.state_root:
            return False
        self._remember_execution(block, state, receipts)
        return True

    def _execute_transactions(
        self, parent_state: StateDB, txs: List[Transaction], block: Block
    ):
        context = ExecutionContext(
            block_height=block.height,
            timestamp_ms=block.header.timestamp_ms,
            proposer=block.header.proposer,
            node_name=self.name,
        )
        state, receipts = self._apply_block(parent_state, txs, context)
        return state, receipts

    def _apply_block(
        self,
        parent_state: StateDB,
        txs: List[Transaction],
        context: ExecutionContext,
    ):
        """Fork the parent and apply ``txs``, serially or via the parallel
        scheduler per config; results are bit-identical either way."""
        if self.config.parallel_execution:
            state, receipts = self._block_scheduler().execute_block(
                parent_state, txs, context
            )
            for receipt in receipts:
                self.metrics.add_gas(receipt.gas_used, scope=self.name)
            return state, receipts
        state = parent_state.fork()
        receipts = []
        for tx in txs:
            receipt = self.executor.apply(state, tx, context)
            self.metrics.add_gas(receipt.gas_used, scope=self.name)
            receipts.append(receipt)
        return state, receipts

    def _remember_execution(
        self, block: Block, state: StateDB, receipts: List[Receipt]
    ) -> None:
        self._states[block.block_id] = state
        self._block_receipts[block.block_id] = receipts

    def _set_state_span_attrs(self, span, state: StateDB) -> None:
        stats = state.stats()
        span.set_attr("state_writes", stats["local_keys"])
        span.set_attr("overlay_depth", stats["overlay_depth"])
        span.set_attr("journal_depth", stats["journal_depth"])
        span.set_attr("root_cache_hits", stats["root_cache_hits"])
        span.set_attr("root_recomputes", stats["root_recomputes"])

    def _report_orphan_evictions(self) -> None:
        evicted = self.store.orphans_evicted - self._orphan_evictions_reported
        if evicted > 0:
            self.metrics.add("orphans_evicted", evicted, scope=self.name)
            self._orphan_evictions_reported = self.store.orphans_evicted

    # -- head adoption -----------------------------------------------------
    def _on_new_head(self, old_head: Block) -> None:
        self._charge_lost_race()
        new_blocks = self._new_canonical_blocks()
        self._evict_committed(new_blocks)
        self._record_commits(new_blocks)
        self._emit_new_canonical_events(new_blocks)
        self._prune_states()
        self.metrics.add("blocks_adopted", 1, scope=self.name)
        if self._started:
            self._plan_round()

    # -- state pruning ------------------------------------------------------
    def _prune_states(self) -> None:
        """Bound per-block state retention to the finality window.

        Full (collapsed) state is kept only at (or a bounded distance
        below) the window boundary on the canonical chain; newer blocks —
        canonical or recent forks — keep their copy-on-write overlays.
        Everything older is dropped from the per-block maps, so state
        memory scales with chain width inside the window rather than with
        total chain length.  The boundary state is collapsed only once its
        overlay chain reaches ``state_collapse_interval`` layers, keeping
        steady-state per-block cost at O(write-set) amortized instead of
        rebuilding the full state dict on every head change.  Blocks
        attaching below the boundary can no longer be validated
        (documented finality assumption).
        """
        window = self.config.state_prune_window
        if window <= 0:
            return
        head = self.store.head
        boundary_height = head.height - window
        if boundary_height < 0:
            return
        boundary = head
        for _ in range(window):
            boundary = self.store.get(boundary.header.parent_hash.hex())
        boundary_state = self._states.get(boundary.block_id)
        if boundary_state is not None and boundary_state.overlay_depth >= max(
            1, self.config.state_collapse_interval
        ):
            boundary_state.collapse()
        stale = [
            block_id
            for block_id in self._states
            if block_id != boundary.block_id
            and self.store.get(block_id).height <= boundary_height
        ]
        for block_id in stale:
            del self._states[block_id]
            self._block_receipts.pop(block_id, None)
        if stale:
            self.metrics.add("state_entries_pruned", len(stale), scope=self.name)

    def _new_canonical_blocks(self) -> List[Block]:
        """Canonical blocks not yet processed, oldest first.

        Walks back from the head until it meets an already-emitted block;
        with longest-chain consensus reorgs are shallow, so this is O(new
        blocks) instead of O(chain length).  Transactions reorged *out* are
        not returned to the mempool (documented simplification).
        """
        fresh: List[Block] = []
        for block in self.store.ancestors(self.store.head):
            if block.block_id in self._emitted_blocks:
                break
            fresh.append(block)
        fresh.reverse()
        return fresh

    def _evict_committed(self, new_blocks: List[Block]) -> None:
        """Drop committed txs and purge nonces the chain has moved past.

        The post-block account nonce of every sender touched by the new
        canonical blocks is fed back to the pool, which purges any pooled
        transaction with a lower nonce — those can never execute and used
        to leak in the pool forever.
        """
        committed: List[str] = []
        senders: Set[str] = set()
        for block in new_blocks:
            for tx in block.transactions:
                committed.append(tx.tx_id)
                senders.add(tx.sender)
        if not committed:
            return
        head_state = self._states[self.store.head.block_id]
        nonces = {sender: head_state.nonce(sender) for sender in senders}
        self.mempool.commit(committed, nonces)

    def _record_commits(self, new_blocks: List[Block]) -> None:
        for block in new_blocks:
            for receipt in self._block_receipts.get(block.block_id, []):
                if receipt.tx_id not in self._receipts_by_tx:
                    self._receipts_by_tx[receipt.tx_id] = receipt
                    submitted = self._tx_submit_times.get(receipt.tx_id)
                    if submitted is not None:
                        self.metrics.observe(
                            "tx_commit_latency_s", self.now - submitted
                        )
                        self.metrics.add("txs_committed", 1, scope=self.name)

    def _emit_new_canonical_events(self, new_blocks: List[Block]) -> None:
        for block in new_blocks:
            if block.block_id in self._emitted_blocks:
                continue
            self._emitted_blocks.add(block.block_id)
            for receipt in self._block_receipts.get(block.block_id, []):
                for event in receipt.events:
                    self.events.append(event)
                    for subscriber in self._event_subscribers:
                        subscriber(event)

    # -- proposing ----------------------------------------------------------
    def _cancel_round(self) -> None:
        if self._proposal_handle is not None:
            self._proposal_handle.cancel()
            self._proposal_handle = None
        self._round_start = None

    def _charge_lost_race(self) -> None:
        """Account hash work burned since the round began (PoW racing)."""
        if self._round_start is None:
            return
        elapsed = self.now - self._round_start
        rate = self.consensus.work_per_second(self.name)
        if rate > 0 and elapsed > 0:
            self.metrics.add_hashes(elapsed * rate, scope=self.name)
        self._round_start = None

    def _plan_round(self) -> None:
        self._cancel_round()
        if not self._started:
            return
        if not self.config.mine_empty and len(self.mempool) == 0:
            return
        plan = self.consensus.plan_proposal(
            self.name, self.store.head, self.kernel.rng.random()
        )
        if plan.delay_s is None:
            return
        parent_id = self.store.head.block_id
        self._round_start = self.now
        self._proposal_handle = self.after(
            plan.delay_s, lambda: self._propose(parent_id), label=f"{self.name}:propose"
        )

    def _propose(self, parent_id: str) -> None:
        self._proposal_handle = None
        if self.store.head.block_id != parent_id:
            # Lost the race; a new round has been planned by _on_new_head.
            return
        with trace_span(
            "consensus.propose",
            node=self.name,
            engine=self.consensus.name,
            height=self.store.head.height + 1,
            sim_time=self.now,
        ) as span:
            self._propose_inner(span)

    def _propose_inner(self, span) -> None:
        parent = self.store.head
        parent_state = self._states[parent.block_id]
        # Priority-ordered executable selection: the pool looks up each
        # candidate sender's account nonce lazily and drains by effective
        # fee (replaces the old two-pass FIFO scan).
        txs = self.mempool.select(
            self.config.max_txs_per_block, nonces=parent_state.nonce
        )
        if not txs and not self.config.mine_empty:
            # Nothing executable (nonce gaps); wait for new txs or a new head.
            return
        context = ExecutionContext(
            block_height=parent.height + 1,
            timestamp_ms=int(self.now * 1000),
            proposer=self.name,
            node_name=self.name,
        )
        state, receipts = self._apply_block(parent_state, txs, context)
        block = build_block(
            parent=parent,
            transactions=txs,
            state_root=state.state_root(),
            proposer=self.name,
            timestamp_ms=int(self.now * 1000),
        )
        sealed = self.consensus.seal(self.name, block)
        attempts = sealed.header.consensus.get("attempts", 0)
        span.set_attr("txs", len(txs))
        span.set_attr("hashes", attempts)
        self._set_state_span_attrs(span, state)
        if attempts:
            self.metrics.add_hashes(attempts, scope=self.name)
        self._round_start = None
        self._seen_blocks.add(sealed.block_id)
        self._remember_execution(sealed, state, receipts)
        old_head = self.store.head
        self.store.add(sealed)
        self.metrics.add("blocks_proposed", 1, scope=self.name)
        self._broadcast_block(sealed)
        if self.store.head.block_id != old_head.block_id:
            self._on_new_head(old_head)
        else:
            self._plan_round()
        # A gossiped block buffered on us may have been waiting for exactly
        # this proposal (we re-proposed a parent another branch built on).
        for child in self._pending_blocks.pop(sealed.block_id, []):
            self._ingest_block(child)


def make_network_nodes(
    kernel: Kernel,
    network: Network,
    names: List[str],
    genesis: Block,
    genesis_state: StateDB,
    consensus_factory: Callable[[], ConsensusEngine],
    metrics: Optional[MetricsRegistry] = None,
    config: Optional[NodeConfig] = None,
) -> Dict[str, BlockchainNode]:
    """Build one node per name on a shared network and genesis.

    ``consensus_factory`` is called once per node unless the engine is
    stateless; passing a single shared engine instance via a lambda is fine.
    """
    shared_metrics = metrics or MetricsRegistry()
    nodes = {}
    for name in names:
        nodes[name] = BlockchainNode(
            kernel=kernel,
            network=network,
            name=name,
            genesis=genesis,
            genesis_state=genesis_state,
            consensus=consensus_factory(),
            executor=ContractExecutor(),
            metrics=shared_metrics,
            config=config,
        )
    return nodes
