"""Validator launcher: one PoA validator as a real TCP process.

    python3 perfbench/node.py --name v0 --workload transfer [--trace FILE]

Builds the workload's deterministic genesis, binds a ``P2PHost`` to an
ephemeral loopback port and prints ``LISTENING host port``.  It then reads
one line from stdin naming the other validators' addresses, dials them,
and serves until stdin reaches EOF.  Besides the host's own ``ctl.*``
methods it registers read-only ``bench.*`` methods: receipt lookup (the
stock node server has none), the canonical chain, and state reads for the
correctness checks.  With ``--trace`` the layer probes are installed
before the host is built and the spans are written to FILE at exit.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List


def register_bench_methods(host) -> None:
    from workloads import read_witness

    node = host.node

    def receipts(tx_ids: List[str]) -> Dict[str, Any]:
        # A dict lookup, atomic under the GIL: served off the kernel thread
        # so that polling does not queue behind (or delay) chain work.
        found = {}
        for tx_id in tx_ids:
            receipt = node.receipt(tx_id)
            if receipt is not None:
                found[tx_id] = [receipt.success, receipt.gas_used, receipt.error]
        return {"receipts": found}

    def chain() -> Dict[str, Any]:
        def read() -> Dict[str, Any]:
            blocks = node.store.canonical_chain()[1:]
            return {
                "blocks": [
                    {
                        "height": b.height,
                        "timestamp_ms": b.header.timestamp_ms,
                        "proposer": b.header.proposer,
                        "tx_ids": [tx.tx_id for tx in b.transactions],
                    }
                    for b in blocks
                ]
            }

        return host.pump.call(read)

    def witness(items: List[List[str]]) -> Dict[str, Any]:
        return host.pump.call(lambda: {"values": read_witness(node.state, items)})

    host.registry.register("bench.receipts", receipts, idempotent=True)
    host.registry.register("bench.chain", chain, idempotent=True)
    host.registry.register("bench.witness", witness, idempotent=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--name", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", default="", help="write spans here at exit")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        from probes import Recorder, install_node_probes

        recorder = Recorder(args.name)
        install_node_probes(recorder)

    from repro.consensus.node import NodeConfig
    from repro.p2p.config import P2PConfig
    from repro.p2p.host import P2PHost
    from workloads import WORKLOADS, build_chain_world

    world = build_chain_world(WORKLOADS[args.workload])
    host = P2PHost(
        name=args.name,
        listen_addr="127.0.0.1:0",
        genesis=world.genesis,
        genesis_state=world.state,
        consensus=world.engine,
        node_config=NodeConfig(mine_empty=False),
        p2p_config=P2PConfig(seeds=[], fanout=4),
    )
    register_bench_methods(host)
    bound = host.start()
    # Peers identify each other by the address they announce, which must
    # be the bound one, not the ":0" we asked for.
    host.transport.local_addr = bound
    try:
        bound_host, bound_port = bound.rsplit(":", 1)
        print(f"LISTENING {bound_host} {bound_port}", flush=True)
        peers = [a for a in sys.stdin.readline().split() if a != bound]
        host.pump.call(lambda: [host.service.peers.learn(a) for a in peers])
        while sys.stdin.readline():
            pass  # serve until the supervisor closes our stdin
    finally:
        host.stop()
        if recorder is not None:
            recorder.dump(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
