"""Blockchain node tests: gossip, consensus convergence, duplicated work."""


from repro.chain.state import StateDB
from repro.chain.blocks import make_genesis
from repro.chain.transactions import make_deploy, make_call, make_transfer
from repro.common.signatures import KeyPair
from repro.consensus.node import make_network_nodes
from repro.consensus.poa import ProofOfAuthority
from repro.consensus.pow import ProofOfWork
from repro.contracts.library import COUNTER_SOURCE
from repro.sim.kernel import Kernel
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Network


def build_network(n_nodes=3, consensus="poa", seed=0, funder=None):
    kernel = Kernel(seed=seed)
    metrics = MetricsRegistry()
    network = Network(kernel, metrics)
    state = StateDB()
    if funder is not None:
        state.credit(funder.address, 10**9)
    genesis = make_genesis(state.state_root())
    names = [f"n{i}" for i in range(n_nodes)]
    if consensus == "poa":
        keypairs = {name: KeyPair.generate(name) for name in names}
        engine = ProofOfAuthority(names, keypairs, block_interval_s=0.5)
    else:
        engine = ProofOfWork(difficulty_bits=8, default_hash_rate=1e4)
    nodes = make_network_nodes(
        kernel, network, names, genesis, state, lambda: engine, metrics=metrics
    )
    for node in nodes.values():
        node.start()
    return kernel, network, metrics, nodes


def commit(kernel, nodes, tx, timeout=120.0):
    deadline = kernel.now + timeout
    kernel.run(
        until=deadline,
        stop_when=lambda: all(n.receipt(tx.tx_id) for n in nodes.values()),
    )


class TestConvergence:
    def test_all_nodes_agree_on_state_root(self, alice):
        kernel, __, ___, nodes = build_network(4, funder=alice)
        tx = make_transfer(alice, "dest", 100, nonce=0)
        nodes["n0"].submit_tx(tx)
        commit(kernel, nodes, tx)
        roots = {node.state.state_root() for node in nodes.values()}
        assert len(roots) == 1
        assert nodes["n3"].state.balance("dest") == 100

    def test_receipt_available_on_every_node(self, alice):
        kernel, __, ___, nodes = build_network(3, funder=alice)
        tx = make_transfer(alice, "dest", 1, nonce=0)
        nodes["n2"].submit_tx(tx)
        commit(kernel, nodes, tx)
        for node in nodes.values():
            receipt = node.receipt(tx.tx_id)
            assert receipt is not None and receipt.success

    def test_pow_network_converges(self, alice):
        kernel, __, ___, nodes = build_network(3, consensus="pow", funder=alice)
        tx = make_transfer(alice, "dest", 5, nonce=0)
        nodes["n0"].submit_tx(tx)
        commit(kernel, nodes, tx, timeout=600.0)
        kernel.run(until=kernel.now + 30.0)  # drain in-flight blocks
        assert len({node.head.block_id for node in nodes.values()}) == 1

    def test_sequence_of_txs_applied_in_nonce_order(self, alice):
        kernel, __, ___, nodes = build_network(3, funder=alice)
        txs = [make_transfer(alice, "dest", 10, nonce=n) for n in range(5)]
        for tx in reversed(txs):  # submit out of order
            nodes["n0"].submit_tx(tx)
        commit(kernel, nodes, txs[-1], timeout=300.0)
        assert nodes["n1"].state.balance("dest") == 50


class TestContractsOnChain:
    def test_deploy_and_call_across_nodes(self, alice):
        kernel, __, ___, nodes = build_network(3, funder=alice)
        deploy = make_deploy(alice, "counter", COUNTER_SOURCE, init={"start": 0}, nonce=0)
        nodes["n0"].submit_tx(deploy)
        commit(kernel, nodes, deploy)
        contract_id = nodes["n1"].receipt(deploy.tx_id).output
        call = make_call(alice, contract_id, "increment", {"by": 2}, nonce=1)
        nodes["n2"].submit_tx(call)
        commit(kernel, nodes, call)
        for node in nodes.values():
            assert node.call_view(contract_id, "get") == 2

    def test_events_reach_subscribers_on_every_node(self, alice):
        kernel, __, ___, nodes = build_network(3, funder=alice)
        seen = {name: [] for name in nodes}
        for name, node in nodes.items():
            node.subscribe_events(lambda e, n=name: seen[n].append(e.name))
        deploy = make_deploy(alice, "counter", COUNTER_SOURCE, nonce=0)
        nodes["n0"].submit_tx(deploy)
        commit(kernel, nodes, deploy)
        contract_id = nodes["n0"].receipt(deploy.tx_id).output
        call = make_call(alice, contract_id, "increment", nonce=1)
        nodes["n0"].submit_tx(call)
        commit(kernel, nodes, call)
        assert all(names == ["Incremented"] for names in seen.values())

    def test_chain_keeps_producing_blocks_past_a_faulting_call(self, alice):
        """A contract whose code raises a Python error yields a failed
        receipt on every node; it must not stop block production."""
        kernel, __, ___, nodes = build_network(3, funder=alice)
        source = COUNTER_SOURCE + "\ndef bad():\n    return 1 < 'a'\n"
        deploy = make_deploy(alice, "counter", source, nonce=0)
        nodes["n0"].submit_tx(deploy)
        commit(kernel, nodes, deploy)
        contract_id = nodes["n0"].receipt(deploy.tx_id).output
        bad = make_call(alice, contract_id, "bad", nonce=1)
        nodes["n1"].submit_tx(bad)
        commit(kernel, nodes, bad)
        height = nodes["n0"].head.header.height
        good = make_call(alice, contract_id, "increment", {"by": 3}, nonce=2)
        nodes["n2"].submit_tx(good)
        commit(kernel, nodes, good)
        for node in nodes.values():
            receipt = node.receipt(bad.tx_id)
            assert not receipt.success and receipt.error.startswith("TypeError")
            assert node.receipt(good.tx_id).success
            assert node.head.header.height > height
            assert node.call_view(contract_id, "get") == 3
        assert len({node.state.state_root() for node in nodes.values()}) == 1


class TestDuplicatedWork:
    def test_every_node_burns_the_same_gas(self, alice):
        """The paper's core complaint: contract gas is duplicated N times."""
        kernel, __, metrics, nodes = build_network(4, funder=alice)
        deploy = make_deploy(alice, "counter", COUNTER_SOURCE, nonce=0)
        nodes["n0"].submit_tx(deploy)
        commit(kernel, nodes, deploy)
        contract_id = nodes["n0"].receipt(deploy.tx_id).output
        call = make_call(alice, contract_id, "increment", nonce=1)
        nodes["n0"].submit_tx(call)
        commit(kernel, nodes, call)
        per_node = metrics.scopes("gas")
        assert len(per_node) == 4
        assert len(set(per_node.values())) == 1  # identical duplicated work
        assert metrics.counter_total("gas") == 4 * next(iter(per_node.values()))

    def test_pow_burns_hashes_on_losers_too(self, alice):
        kernel, __, metrics, nodes = build_network(3, consensus="pow", funder=alice)
        tx = make_transfer(alice, "d", 1, nonce=0)
        nodes["n0"].submit_tx(tx)
        commit(kernel, nodes, tx, timeout=600.0)
        assert metrics.counter_total("hashes") > 0


class TestRobustness:
    def test_invalid_tx_not_propagated(self, alice):
        import dataclasses

        kernel, network, __, nodes = build_network(2, funder=alice)
        tx = make_transfer(alice, "d", 1, nonce=0)
        bad = dataclasses.replace(tx, payload={"to": "evil", "amount": 1})
        # inject the tampered tx directly through the network layer
        network.send("n0", "n1", "tx", bad)
        kernel.run(until=5.0)
        assert len(nodes["n1"].mempool) == 0

    def test_partition_stalls_then_heals(self, alice):
        kernel, network, __, nodes = build_network(2, funder=alice)
        network.partition({"n0"}, {"n1"})
        tx = make_transfer(alice, "d", 1, nonce=0)
        nodes["n0"].submit_tx(tx)
        kernel.run(until=kernel.now + 10.0)
        # n1 is the proposer for some heights but never saw the tx
        assert nodes["n1"].receipt(tx.tx_id) is None
        network.heal()
        # n0 rebroadcasts nothing automatically; resubmit through n1's side
        nodes["n1"]._handle_gossip_tx(tx)
        commit(kernel, nodes, tx)
        assert nodes["n1"].receipt(tx.tx_id).success

    def test_node_config_block_size_respected(self, alice):
        kernel, __, ___, nodes = build_network(2, funder=alice)
        for node in nodes.values():
            node.config.max_txs_per_block = 2
        txs = [make_transfer(alice, "d", 1, nonce=n) for n in range(6)]
        for tx in txs:
            nodes["n0"].submit_tx(tx)
        commit(kernel, nodes, txs[-1], timeout=300.0)
        for block in nodes["n0"].store.canonical_chain():
            assert len(block.transactions) <= 2


class TestMempoolHygiene:
    def test_losing_same_nonce_tx_purged_everywhere_on_commit(self, alice):
        """Regression: the old FIFO pool leaked same-nonce losers forever.

        Two competing nonce-0 transactions enter the network at different
        nodes (RBF refuses the zero-fee cross-gossip, so each pool holds
        only its own).  Once either commits, every pool must be empty —
        the loser's nonce is stale and can never execute.
        """
        kernel, __, metrics, nodes = build_network(3, funder=alice)
        winner = make_transfer(alice, "dest", 10, nonce=0)
        loser = make_transfer(alice, "other", 10, nonce=0)
        nodes["n0"].submit_tx(winner)
        nodes["n1"].submit_tx(loser)
        kernel.run(
            until=kernel.now + 120.0,
            stop_when=lambda: all(
                n.receipt(winner.tx_id) or n.receipt(loser.tx_id)
                for n in nodes.values()
            ),
        )
        kernel.run(until=kernel.now + 5.0)  # let commits drain the pools
        for node in nodes.values():
            assert winner.tx_id not in node.mempool
            assert loser.tx_id not in node.mempool
            assert len(node.mempool) == 0
        assert metrics.counter_total("mempool_stale_purged") >= 1

    def test_stale_nonce_rejected_at_submission(self, alice):
        from repro.chain.mempool import STALE_NONCE

        kernel, __, ___, nodes = build_network(2, funder=alice)
        tx = make_transfer(alice, "dest", 1, nonce=0)
        nodes["n0"].submit_tx(tx)
        commit(kernel, nodes, tx)
        replay = make_transfer(alice, "late", 1, nonce=0)
        result = nodes["n0"].submit_tx(replay)
        assert not result and result.code == STALE_NONCE
        assert replay.tx_id not in nodes["n0"].mempool

    def test_resubmitting_committed_tx_is_duplicate_noop(self, alice):
        from repro.chain.mempool import DUPLICATE

        kernel, __, ___, nodes = build_network(2, funder=alice)
        tx = make_transfer(alice, "dest", 1, nonce=0)
        nodes["n0"].submit_tx(tx)
        commit(kernel, nodes, tx)
        again = nodes["n0"].submit_tx(tx)
        assert not again and again.code == DUPLICATE
        assert tx.tx_id not in nodes["n0"].mempool

    def test_tx_shed_under_overload_can_be_readmitted(self, alice, bob):
        """Regression: a transient POOL_FULL/RATE_LIMITED rejection used
        to blackhole the tx forever — submit_tx marked it seen before
        admission, so the retry its error message asked for came back as
        a 'duplicate' no-op, and peer re-announcements were dropped too.
        """
        from repro.chain.mempool import MempoolConfig, POOL_FULL
        from repro.consensus.node import NodeConfig

        kernel = Kernel(seed=7)
        metrics = MetricsRegistry()
        network = Network(kernel, metrics)
        state = StateDB()
        state.credit(alice.address, 10**9)
        state.credit(bob.address, 10**9)
        genesis = make_genesis(state.state_root())
        names = ["n0"]
        engine = ProofOfAuthority(
            names, {"n0": KeyPair.generate("n0")}, block_interval_s=0.5
        )
        nodes = make_network_nodes(
            kernel,
            network,
            names,
            genesis,
            state,
            lambda: engine,
            metrics=metrics,
            config=NodeConfig(
                mempool=MempoolConfig(
                    max_size=10, high_watermark=0.3, low_watermark=0.2
                )
            ),
        )
        node = nodes["n0"]
        for nonce in range(3):
            node.submit_tx(
                make_transfer(
                    bob, "sink", 1, nonce=nonce,
                    max_fee_per_gas=10, priority_fee_per_gas=10,
                )
            )
        assert node.mempool.shedding
        cheap = make_transfer(alice, "dest", 1, nonce=0)
        refused = node.submit_tx(cheap)
        assert not refused and refused.code == POOL_FULL
        # Pressure clears; both the local resubmit and the gossip path
        # must now give the same tx a fresh admission decision.
        node.mempool.remove_all(node.mempool.all_ids())
        assert not node.mempool.shedding
        node._handle_gossip_tx(cheap)  # peer re-announcement
        assert cheap.tx_id in node.mempool
        node.mempool.remove_all(node.mempool.all_ids())
        assert node.submit_tx(cheap)
        assert cheap.tx_id in node.mempool

    def test_rejected_tx_not_gossiped(self, alice):
        """Admission-gated gossip: a refused tx dies at the first hop."""
        from repro.chain.mempool import MempoolConfig
        from repro.consensus.node import NodeConfig

        kernel = Kernel(seed=3)
        metrics = MetricsRegistry()
        network = Network(kernel, metrics)
        state = StateDB()
        state.credit(alice.address, 10**9)
        genesis = make_genesis(state.state_root())
        names = ["n0", "n1"]
        keypairs = {name: KeyPair.generate(name) for name in names}
        engine = ProofOfAuthority(names, keypairs, block_interval_s=0.5)
        nodes = make_network_nodes(
            kernel,
            network,
            names,
            genesis,
            state,
            lambda: engine,
            metrics=metrics,
            config=NodeConfig(mempool=MempoolConfig(min_fee_per_gas=5)),
        )
        for node in nodes.values():
            node.start()
        free = make_transfer(alice, "dest", 1, nonce=0)
        result = nodes["n0"].submit_tx(free)
        assert not result
        kernel.run(until=5.0)
        assert free.tx_id not in nodes["n0"].mempool
        assert free.tx_id not in nodes["n1"].mempool
        paid = make_transfer(
            alice, "dest", 1, nonce=0, max_fee_per_gas=5, priority_fee_per_gas=5
        )
        assert nodes["n0"].submit_tx(paid)
        kernel.run(until=kernel.now + 5.0)
        assert paid.tx_id in nodes["n1"].mempool or nodes["n1"].receipt(paid.tx_id)


class TestStateRecovery:
    def _grow(self, kernel, nodes, alice, count, start_nonce=0, submit_to="n0"):
        for node in nodes.values():
            node.config.max_txs_per_block = 1  # one block per tx
        txs = [make_transfer(alice, "d", 1, nonce=start_nonce + n) for n in range(count)]
        for tx in txs:
            nodes[submit_to].submit_tx(tx)
        commit(kernel, nodes, txs[-1], timeout=300.0)
        return txs

    def test_recover_states_reexecutes_forward(self, alice):
        kernel, __, metrics, nodes = build_network(2, funder=alice)
        self._grow(kernel, nodes, alice, 3)
        node = nodes["n0"]
        chain = node.store.canonical_chain()
        assert len(chain) >= 3
        # Simulate a restart that lost every non-genesis state.
        for block in chain[1:]:
            node._states.pop(block.block_id, None)
        assert node._recover_states(node.head.block_id)
        assert node.head.block_id in node._states
        assert metrics.counter("states_recovered", scope="n0") >= len(chain) - 1
        # Recomputed state matches what consensus agreed on.
        assert (
            node._states[node.head.block_id].state_root()
            == node.head.header.state_root
        )

    def test_recover_states_fails_below_retained_window(self, alice):
        kernel, __, ___, nodes = build_network(2, funder=alice)
        self._grow(kernel, nodes, alice, 3)
        node = nodes["n0"]
        for block in node.store.canonical_chain()[1:]:
            node._states.pop(block.block_id, None)
        # A depth bound tighter than the gap must refuse, not loop.
        assert not node._recover_states(node.head.block_id, max_depth=1)

    def test_gossip_block_with_missing_parent_state_is_not_dropped(self, alice):
        """Regression: a block whose parent *block* is stored but whose
        parent *state* is gone used to be silently discarded."""
        kernel, network, metrics, nodes = build_network(3, funder=alice)
        self._grow(kernel, nodes, alice, 2)
        base_height = nodes["n0"].head.height
        network.partition({"n0", "n1"}, {"n2"})
        txs = [make_transfer(alice, "d", 1, nonce=2 + n) for n in range(2)]
        for tx in txs:
            nodes["n0"].submit_tx(tx)
        kernel.run(
            until=kernel.now + 120.0,
            stop_when=lambda: all(
                nodes[n].receipt(txs[-1].tx_id) for n in ("n0", "n1")
            ),
        )
        assert nodes["n0"].head.height > base_height
        laggard = nodes["n2"]
        assert laggard.head.height == base_height
        # Lose the laggard's recent states while it keeps the blocks.
        for block in laggard.store.canonical_chain()[1:]:
            laggard._states.pop(block.block_id, None)
        # Deliver the missed blocks directly (the partition stays up, so
        # this is the only path they can arrive by), oldest first.
        for block in nodes["n0"].store.canonical_chain()[base_height + 1 :]:
            laggard._handle_gossip_block(block)
        kernel.run(until=kernel.now + 5.0)
        assert laggard.head.block_id == nodes["n0"].head.block_id
        assert laggard.state.state_root() == nodes["n0"].state.state_root()
        assert metrics.counter("states_recovered", scope="n2") >= 1


class TestStatePruning:
    def test_state_retention_bounded_by_window(self, alice):
        kernel, __, metrics, nodes = build_network(3, funder=alice)
        for node in nodes.values():
            node.config.state_prune_window = 2
            node.config.max_txs_per_block = 1  # force one block per transfer
        txs = [make_transfer(alice, "dest", 1, nonce=n) for n in range(6)]
        for tx in txs:
            nodes["n0"].submit_tx(tx)
        commit(kernel, nodes, txs[-1], timeout=300.0)
        for node in nodes.values():
            height = node.store.height
            assert height > 4  # chain kept growing past the window
            # Retained states: window boundary + blocks inside the window
            # (plus recent fork tips) — never the whole chain.
            assert len(node._states) <= node.config.state_prune_window + 3
            assert len(node._block_receipts) <= len(node._states)
        assert metrics.counter("state_entries_pruned", scope="n0") > 0

    def test_boundary_collapse_deferred_by_interval(self, alice):
        # The boundary state is collapsed only every state_collapse_interval
        # blocks (amortizing the O(state) collapse), so overlay chains stay
        # bounded by interval + window and nodes still converge.
        kernel, __, ___, nodes = build_network(3, funder=alice)
        for node in nodes.values():
            node.config.state_prune_window = 2
            node.config.state_collapse_interval = 3
            node.config.max_txs_per_block = 1
        txs = [make_transfer(alice, "dest", 1, nonce=n) for n in range(8)]
        for tx in txs:
            nodes["n0"].submit_tx(tx)
        commit(kernel, nodes, txs[-1], timeout=300.0)
        for node in nodes.values():
            bound = (
                node.config.state_prune_window
                + node.config.state_collapse_interval
            )
            assert node.state.overlay_depth <= bound
        roots = {node.state.state_root() for node in nodes.values()}
        assert len(roots) == 1
        assert nodes["n0"].state.balance("dest") == 8

    def test_collapse_interval_one_restores_per_block_collapse(self, alice):
        kernel, __, ___, nodes = build_network(2, funder=alice)
        for node in nodes.values():
            node.config.state_prune_window = 2
            node.config.state_collapse_interval = 1
            node.config.max_txs_per_block = 1
        txs = [make_transfer(alice, "dest", 1, nonce=n) for n in range(6)]
        for tx in txs:
            nodes["n0"].submit_tx(tx)
        commit(kernel, nodes, txs[-1], timeout=300.0)
        for node in nodes.values():
            # Boundary collapsed on every head change: depth never exceeds
            # the window itself.
            assert node.state.overlay_depth <= node.config.state_prune_window
        roots = {node.state.state_root() for node in nodes.values()}
        assert len(roots) == 1

    def test_pruned_node_still_converges_and_serves_receipts(self, alice):
        kernel, __, ___, nodes = build_network(3, funder=alice)
        for node in nodes.values():
            node.config.state_prune_window = 2
        txs = [make_transfer(alice, "dest", 10, nonce=n) for n in range(5)]
        for tx in txs:
            nodes["n0"].submit_tx(tx)
        commit(kernel, nodes, txs[-1], timeout=300.0)
        roots = {node.state.state_root() for node in nodes.values()}
        assert len(roots) == 1
        for node in nodes.values():
            assert node.state.balance("dest") == 50
            for tx in txs:
                assert node.receipt(tx.tx_id).success
