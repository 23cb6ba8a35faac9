"""The load generator: open-loop, seeded, one asyncio thread.

Inputs are built (signed, wire-encoded) before the clock starts.  Each
operation is timed from its *due* time, so a stall also charges the wait it
imposes on later operations.  ``lag`` samples record how late the
generator itself woke up for an operation whose turn had come.

Chain workloads keep at most one unacknowledged submit per sender, so the
nonce order each node sees is the order the sender signed.  A submit
refused as OVERLOADED (or by the pool as rate-limited / full) is retried
with backoff; one still refused after the retries counts as failed.
Connections: one pipelined connection per server.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.rpc.client import ConnectionPool, RetryPolicy
from repro.rpc.errors import OverloadedError

SUBMIT_ATTEMPTS = 4
BACKOFF_S = 0.05
RETRYABLE_STATUSES = ("rate-limited", "pool-full")
POLL_S = 0.01
START_LEAD_S = 0.3


@dataclass
class Outcome:
    """What happened to one offered operation."""

    due: float  # absolute monotonic due time
    done: Optional[float] = None  # receipt readable / answer composed
    status: str = "unfinished"
    detail: Any = None  # receipt (chain) or result hash (sites)


@dataclass
class DriveStats:
    start: float = 0.0
    outcomes: List[Outcome] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    rtts: List[float] = field(default_factory=list)
    submits: int = 0
    overloaded: int = 0
    refused_retries: int = 0
    answers_bytes: List[int] = field(default_factory=list)


def pool_for(addr) -> ConnectionPool:
    host, port = addr
    return ConnectionPool(
        host,
        port,
        max_connections=1,
        connect_timeout_s=5.0,
        request_timeout_s=20.0,
        retry=RetryPolicy(attempts=1),
    )


async def _sleep_until(when: float, stats: DriveStats) -> None:
    delay = when - time.monotonic()
    if delay > 0:
        await asyncio.sleep(delay)
        stats.lags.append(time.monotonic() - when)


# -- chain ---------------------------------------------------------------------
async def drive_chain(ops, addrs: Dict[str, Any], seconds: float, drain_s: float) -> DriveStats:
    """Offer ``ops`` (workloads.ChainOp) to the validators; await receipts."""
    stats = DriveStats(start=time.monotonic() + START_LEAD_S)
    deadline = stats.start + seconds + drain_s
    pools = {name: pool_for(addr) for name, addr in addrs.items()}
    pending: Dict[str, Dict[str, Outcome]] = {name: {} for name in addrs}
    stats.outcomes = [Outcome(due=stats.start + op.due) for op in ops]
    by_sender: Dict[int, List[int]] = {}
    for op in ops:
        by_sender.setdefault(op.sender, []).append(op.index)

    async def submit(op, outcome: Outcome) -> None:
        pool = pools[op.node]
        for attempt in range(SUBMIT_ATTEMPTS):
            if attempt:
                await asyncio.sleep(BACKOFF_S * 2 ** (attempt - 1))
            sent = time.monotonic()
            stats.submits += 1
            try:
                reply = await pool.call("ctl.submit_tx", {"tx": op.wire}, timeout_s=20.0)
            except OverloadedError:
                stats.overloaded += 1
                continue
            except Exception as exc:  # transport or server failure: counted
                outcome.status = f"error: {type(exc).__name__}: {exc}"
                return
            stats.rtts.append(time.monotonic() - sent)
            status = reply.get("status", "")
            if reply.get("accepted") or status == "duplicate":
                outcome.status = "pending"
                pending[op.node][op.tx.tx_id] = outcome
                return
            if status not in RETRYABLE_STATUSES:
                outcome.status = f"refused: {status}"
                return
            stats.refused_retries += 1
        outcome.status = "refused after retries"

    async def sender_loop(indices: List[int]) -> None:
        for index in indices:
            outcome = stats.outcomes[index]
            await _sleep_until(outcome.due, stats)
            if time.monotonic() >= deadline:
                return  # left "unfinished"
            await submit(ops[index], outcome)

    async def poll_receipts(node: str) -> None:
        waiting = pending[node]
        while True:
            await asyncio.sleep(POLL_S)
            if not waiting:
                if senders_done.is_set():
                    return
                continue
            try:
                reply = await pools[node].call(
                    "bench.receipts", {"tx_ids": list(waiting)}, timeout_s=20.0
                )
            except Exception:
                continue  # try again next tick; the deadline bounds us
            now = time.monotonic()
            for tx_id, (success, gas, error) in reply["receipts"].items():
                outcome = waiting.pop(tx_id)
                outcome.done = now
                outcome.status = "committed" if success else f"reverted: {error}"
                outcome.detail = gas

    senders_done = asyncio.Event()
    pollers = [asyncio.ensure_future(poll_receipts(n)) for n in addrs]
    try:
        await asyncio.wait_for(
            asyncio.gather(*(sender_loop(ix) for ix in by_sender.values())),
            timeout=max(0.1, deadline - time.monotonic()),
        )
        senders_done.set()
        await asyncio.wait_for(
            asyncio.gather(*pollers), timeout=max(0.1, deadline - time.monotonic())
        )
    except asyncio.TimeoutError:
        pass  # what is still pending stays "unfinished"
    finally:
        for task in pollers:
            task.cancel()
        await asyncio.gather(*pollers, return_exceptions=True)
        for pool in pools.values():
            await pool.close()
    for outcome in stats.outcomes:
        if outcome.status == "pending":
            outcome.status = "unfinished"
    return stats


# -- sites ---------------------------------------------------------------------
def _site_gateway(addrs: Dict[str, Any]):
    from repro.rpc.gateway import TcpGateway

    return TcpGateway(
        addrs,
        max_connections_per_site=1,
        request_timeout_s=60.0,
        retry=RetryPolicy(attempts=1),
    )


async def _fl_replies(gateway, task_prefix: str, params) -> List[Dict[str, Any]]:
    """One federated round's ``local_train`` call on every site, in parallel."""
    return await asyncio.gather(
        *(
            gateway.acall(
                site,
                "site.run_task",
                {
                    "task_id": f"{task_prefix}-{site}",
                    "tool_id": "local_train",
                    "dataset_ids": [f"emr-{site}"],
                    "params": params,
                },
                idempotent=True,
            )
            for site in gateway.site_names()
        )
    )


async def warm_sites(addrs: Dict[str, Any], questions, fl_inputs) -> None:
    """Ask every question and run every federated round once, one at a time.

    First-use costs (lazy imports, caches filled on first access) then land
    in set-up, which the caller times, instead of in the measured window.
    """
    from repro.query.parser import parse_query

    gateway = _site_gateway(addrs)
    try:
        for text in questions:
            answer = await gateway.aexecute(parse_query(text))
            if answer.failed_sites:
                raise RuntimeError(f"warm-up question failed on {answer.failed_sites}")
        for variant, params in sorted(fl_inputs.items()):
            await _fl_replies(gateway, f"warm-{variant}", params)
    finally:
        await gateway.aclose()


async def drive_sites(
    ops, addrs: Dict[str, Any], seconds: float, drain_s: float, fl_inputs, rec=None
) -> DriveStats:
    """Offer questions and federated rounds (workloads.SiteOp) to the sites."""
    import numpy as np

    from repro.analytics.models import average_params
    from repro.common.hashing import hash_value_hex
    from repro.query.parser import parse_query

    stats = DriveStats(start=time.monotonic() + START_LEAD_S)
    deadline = stats.start + seconds + drain_s
    gateway = _site_gateway(addrs)
    stats.outcomes = [Outcome(due=stats.start + op.due) for op in ops]

    def span(name: str, ref: str = ""):
        return rec.span(name, ref) if rec is not None else contextlib.nullcontext()

    async def question(op, outcome: Outcome) -> None:
        with span("op.query", str(op.index)):
            with span("query.parse"):
                vector = parse_query(op.question)
            answer = await gateway.aexecute(vector)
        outcome.done = time.monotonic()
        outcome.detail = answer.result_hash
        outcome.status = "failed sites" if answer.failed_sites else "answered"
        stats.answers_bytes.append(answer.bytes_on_wire)

    async def fl_round(op, outcome: Outcome) -> None:
        with span("op.fl_round", str(op.index)):
            replies = await _fl_replies(gateway, f"fl-{op.index}", fl_inputs[op.fl_variant])
            with span("learning.aggregate"):
                updates = [[np.asarray(p) for p in r["result"]["params"]] for r in replies]
                weights = [float(r["result"]["n"]) for r in replies]
                merged = average_params(updates, weights)
                digest = hash_value_hex([p.tolist() for p in merged])
        outcome.done = time.monotonic()
        outcome.detail = digest
        outcome.status = "answered"

    async def run_op(op, outcome: Outcome) -> None:
        await _sleep_until(outcome.due, stats)
        try:
            if op.question is None:
                await fl_round(op, outcome)
            else:
                await question(op, outcome)
        except Exception as exc:  # counted as failed, never raised
            outcome.status = f"error: {type(exc).__name__}: {exc}"

    tasks = [asyncio.ensure_future(run_op(op, o)) for op, o in zip(ops, stats.outcomes)]
    try:
        await asyncio.wait(tasks, timeout=max(0.1, deadline - time.monotonic()))
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await gateway.aclose()
    return stats
