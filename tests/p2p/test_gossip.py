"""Gossip: announce-by-hash semantics, dedup, and the zero-flood property."""

from __future__ import annotations

from repro.chain.transactions import make_transfer
from repro.p2p.gossip import KIND_TX, SeenCache
from repro.p2p.wire import tx_to_wire


def test_seen_cache_is_a_bounded_lru():
    cache = SeenCache(3)
    assert cache.add("a") and cache.add("b") and cache.add("c")
    assert not cache.add("a")  # duplicate, refreshed
    cache.add("d")  # evicts b (a was refreshed)
    assert "a" in cache and "b" not in cache
    assert len(cache) == 3


def test_tx_gossip_propagates_via_fetch_on_miss(p2p_world):
    world = p2p_world
    tx = make_transfer(world.alice, "sink", 1, nonce=0)
    world.nodes["n0"].submit_tx(tx)
    world.kernel.run(
        until=world.kernel.now + 30,
        stop_when=lambda: all(tx.tx_id in n.mempool or n.receipt(tx.tx_id)
                              for n in world.nodes.values()),
    )
    assert all(
        tx.tx_id in node.mempool or node.receipt(tx.tx_id)
        for node in world.nodes.values()
    )
    assert world.metrics.counter_total("p2p_announce_sent") > 0
    assert world.metrics.counter_total("p2p_fetches") > 0


def test_block_propagation_never_duplicates_bodies(p2p_world):
    world = p2p_world
    txs = [make_transfer(world.alice, "sink", 1, nonce=n) for n in range(9)]
    for tx in txs:
        world.nodes["n0"].submit_tx(tx)
    world.commit(txs[-1])
    assert world.converged()
    assert world.nodes["n0"].head.height >= 3
    # The zero-flood property: every node received each block body at most
    # once; redundant announcements were deduplicated by id.
    assert world.metrics.counter_total("p2p_duplicate_bodies") == 0
    assert world.metrics.counter_total("p2p_announce_duplicate") > 0


def test_bodies_are_never_flooded_full_size(p2p_world):
    """Announcements are id-sized; bodies move only via explicit fetch."""
    world = p2p_world
    tx = make_transfer(world.alice, "sink", 1, nonce=0)
    world.nodes["n0"].submit_tx(tx)
    world.commit(tx)
    fetches = world.metrics.counter_total("p2p_fetches")
    served = world.metrics.counter_total("p2p_bodies_served")
    assert fetches > 0
    assert served <= fetches  # one body per fetch, never pushed unrequested


def test_body_with_float_payload_is_counted_invalid_not_raised(p2p_world):
    world = p2p_world
    wire = tx_to_wire(make_transfer(world.alice, "sink", 1, nonce=0))
    wire["payload"]["amount"] = 1.5
    world.services["n1"].gossip._deliver(KIND_TX, wire)
    assert world.metrics.counter_total("p2p_invalid_bodies") == 1
