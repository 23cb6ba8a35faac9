"""End-of-run correctness checks.  Each returns a list of failure strings.

Chain: every validator agrees on head id and state root; every offered tx
that committed succeeded; and a serial in-process ``ContractExecutor``
replay of the canonical chain from the same genesis reproduces the
validators' state root and the workload's key values (per-sender weights,
touched consent entries, account balances).

Sites: each composed answer hashes equal to the in-process
``InprocGateway`` answer for the same question, and each federated round
to the same round run in-process (the E15 transport-equivalence property).
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List

from repro.chain.executor import ExecutionContext
from repro.chain.state import StateDB
from repro.contracts.runtime import ContractExecutor
from workloads import read_witness, witness_items


async def call_all(addrs, method: str, params=None) -> Dict[str, Any]:
    """Call ``method`` on every server in ``addrs``; results by name."""
    from drive import pool_for

    out = {}
    for name, addr in addrs.items():
        pool = pool_for(addr)
        try:
            out[name] = await pool.call(method, params or {}, timeout_s=20.0, idempotent=True)
        finally:
            await pool.close()
    return out


def check_chain(workload, world_factory, ops, stats, addrs, converge_s: float = 15.0):
    """Returns (failures, canonical blocks above genesis)."""
    failures: List[str] = []
    committed = [i for i, o in enumerate(stats.outcomes) if o.done is not None]
    reverted = [o.status for o in stats.outcomes if o.status.startswith("reverted")]
    if reverted:
        failures.append(f"{len(reverted)} receipts failed, e.g. {reverted[0]}")

    deadline = time.monotonic() + converge_s
    while True:
        status = asyncio.run(call_all(addrs, "ctl.status"))
        heads = {s["head_id"] for s in status.values()}
        roots = {s["state_root"] for s in status.values()}
        if len(heads) == 1 or time.monotonic() > deadline:
            break
        time.sleep(0.2)
    if len(heads) != 1 or len(roots) != 1:
        failures.append(f"validators disagree: heads={sorted(heads)} roots={sorted(roots)}")
        return failures, 0
    root = roots.pop()

    chain = asyncio.run(call_all({"v0": addrs["v0"]}, "bench.chain"))["v0"]["blocks"]
    by_id = {op.tx.tx_id: op for op in ops}
    on_chain = [tx_id for block in chain for tx_id in block["tx_ids"]]
    if sorted(on_chain) != sorted(by_id[ops[i].tx.tx_id].tx.tx_id for i in committed):
        unknown = [t for t in on_chain if t not in by_id]
        failures.append(
            f"chain holds {len(on_chain)} txs, {len(committed)} receipts seen"
            f" ({len(unknown)} unknown ids)"
        )
        return failures, len(chain)

    world = world_factory()
    state: StateDB = world.state
    executor = ContractExecutor()
    for block in chain:
        context = ExecutionContext(
            block_height=block["height"],
            timestamp_ms=block["timestamp_ms"],
            proposer=block["proposer"],
            node_name="replay",
        )
        for tx_id in block["tx_ids"]:
            receipt = executor.apply(state, by_id[tx_id].tx, context)
            if not receipt.success:
                failures.append(f"replay of {tx_id[:12]} failed: {receipt.error}")
    if state.state_root().hex() != root:
        failures.append("serial replay state root differs from the validators'")

    items = witness_items(workload, world, ops)
    expected = read_witness(state, items)
    replies = asyncio.run(call_all(addrs, "bench.witness", {"items": items}))
    for name, reply in replies.items():
        if reply["values"] != expected:
            bad = sum(a != b for a, b in zip(reply["values"], expected))
            failures.append(f"{name}: {bad} of {len(items)} workload values differ from replay")
    return failures, len(chain)


def check_sites(workload, ops, stats, fl_inputs) -> List[str]:
    import numpy as np

    from repro.analytics.models import average_params
    from repro.common.hashing import hash_value_hex
    from repro.query.parser import parse_query
    from repro.rpc.demo import build_inproc_gateway
    from workloads import build_site_platform

    platform = build_site_platform(workload)
    gateway = build_inproc_gateway(platform)
    expected: Dict[Any, str] = {}
    failures: List[str] = []
    try:
        for op, outcome in zip(ops, stats.outcomes):
            if outcome.status != "answered":
                continue  # already counted as failed
            key = op.question if op.question is not None else ("fl", op.fl_variant)
            if key not in expected:
                if op.question is not None:
                    expected[key] = gateway.execute(parse_query(op.question)).result_hash
                else:
                    replies = [
                        gateway.call(
                            site,
                            "site.run_task",
                            {
                                "task_id": f"fl-ref-{site}",
                                "tool_id": "local_train",
                                "dataset_ids": [f"emr-{site}"],
                                "params": fl_inputs[op.fl_variant],
                            },
                        )
                        for site in gateway.site_names()
                    ]
                    merged = average_params(
                        [[np.asarray(p) for p in r["result"]["params"]] for r in replies],
                        [float(r["result"]["n"]) for r in replies],
                    )
                    expected[key] = hash_value_hex([p.tolist() for p in merged])
            if outcome.detail != expected[key]:
                failures.append(f"op {op.index} ({key}) hash differs from in-process answer")
    finally:
        gateway.close()
    return failures
