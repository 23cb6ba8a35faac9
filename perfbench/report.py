"""Metrics from one run: end-to-end figures and the traced per-layer table."""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Span name prefix -> layer (module) used for self-time shares.
LAYERS = (
    ("signatures.", "common.signatures"),
    ("wire.", "p2p.wire"),
    ("mempool.", "chain.mempool"),
    ("blocks.", "chain.blocks"),
    ("poa.", "consensus.poa"),
    ("contracts.", "contracts"),
    ("state.", "chain.state"),
    ("store.", "chain.store"),
    ("host.", "p2p.host"),
    ("query.", "query"),
    ("datamgmt.", "datamgmt"),
    ("analytics.", "analytics"),
    ("learning.", "learning"),
)
#: Spans that mostly wait on another process; kept out of busy shares.
WAIT_SPANS = ("gateway.site_call", "op.query", "op.fl_round")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))]


def beyond(count: int, q: float) -> int:
    """Samples strictly beyond the q-th percentile of ``count`` samples."""
    return count - 1 - min(count - 1, int(round(q * (count - 1)))) if count else 0


# -- spans ---------------------------------------------------------------------
class Spans:
    """Every process's spans, restricted to the measured window."""

    def __init__(self, paths: Iterable[str], window: Tuple[float, float], generator=None):
        self.by_process: Dict[str, List[tuple]] = {}
        self.waits: Dict[str, List[float]] = defaultdict(list)
        start, end = window
        self.window_s = end - start
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                head = json.loads(handle.readline())
                spans = [tuple(json.loads(line)) for line in handle]
            self._add(head["process"], spans, head["waits"], start, end)
        if generator is not None:
            self._add("generator", generator.spans, generator.waits, start, end)

    def _add(self, process, spans, waits, start, end) -> None:
        self.by_process[process] = [s for s in spans if start <= s[1] <= end]
        for name, samples in waits.items():
            self.waits[name].extend(d for t, d in samples if start <= t <= end)

    def named(self, name: str) -> List[tuple]:
        return [s for spans in self.by_process.values() for s in spans if s[0] == name]

    def total_ms(self, name: str) -> float:
        return 1000.0 * sum(s[2] - s[1] for s in self.named(name))

    def durations_ms(self, name: str) -> List[float]:
        return [1000.0 * (s[2] - s[1]) for s in self.named(name)]

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer (busy spans only)."""
        totals: Dict[str, float] = defaultdict(float)
        for spans in self.by_process.values():
            children: Dict[int, List[tuple]] = defaultdict(list)
            for span in spans:
                children[span[4]].append(span)
            for span in spans:
                layer = layer_of(span)
                if layer is None:
                    continue
                covered = _union([(c[1], c[2]) for c in children.get(span[3], ())])
                totals[layer] += max(0.0, (span[2] - span[1]) - covered)
        return totals


def layer_of(span: tuple) -> Optional[str]:
    name = span[0]
    if name in WAIT_SPANS:
        return None
    if name == "analytics.task" and span[6] == "local_train":
        return "learning"
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return None


def _union(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


# -- per-layer metrics ---------------------------------------------------------
def per_layer(spans: Spans, ctx: Dict[str, Any]) -> Tuple[Dict[str, float], Dict[str, str]]:
    """The per-layer metric values and, for each unmeasurable one, why."""
    txs = ctx.get("committed_txs", 0)
    blocks = ctx.get("blocks", 0)
    queries = ctx.get("answered_queries", 0)
    values: Dict[str, float] = {}
    why: Dict[str, str] = {}

    def per(total: float, count: int, name: str, what: str) -> None:
        if count:
            values[name] = total / count
        else:
            values[name] = 0.0
            why[name] = f"no {what} in this workload"

    def mean(samples: List[float], name: str, what: str) -> None:
        per(sum(samples), len(samples), name, what)

    # common.signatures
    tx_verifies = []
    redundant = 0
    for spans_of in spans.by_process.values():
        parents = {s[3]: s for s in spans_of if s[0] == "signatures.tx_verify"}
        seen = set()
        for s in spans_of:
            if s[0] == "signatures.verify" and s[4] in parents:
                tx_verifies.append(s)
                ref = parents[s[4]][5]
                redundant += ref in seen
                seen.add(ref)
    per(len(tx_verifies), txs, "signatures.verify_per_tx", "committed txs")
    per(1000.0 * sum(s[2] - s[1] for s in tx_verifies), txs, "signatures.verify_ms_per_tx", "committed txs")
    per(redundant, len(tx_verifies), "signatures.redundant_verify_ratio", "tx signature verifies")
    per(spans.total_ms("signatures.sign"), blocks, "signatures.sign_ms_per_block", "blocks")

    # p2p.wire: top-level decodes only (a block decode contains its txs').
    top = _top_level(spans, "wire.")
    per(1000.0 * sum(s[2] - s[1] for s in top), txs, "wire.decode_ms_per_tx", "committed txs")
    per(sum(s[6] or 0 for s in top), txs, "wire.bytes_per_tx", "committed txs")

    # p2p.gossip / p2p.service counters
    counters = ctx.get("p2p_counters", {})
    per(counters.get("p2p_announce_sent", 0), txs, "p2p.announces_per_tx", "committed txs")
    per(counters.get("p2p_fetches", 0), txs, "p2p.fetches_per_tx", "committed txs")
    values["p2p.duplicate_bodies"] = float(counters.get("p2p_duplicate_bodies", 0))

    # p2p.host
    waits = [1000.0 * w for w in spans.waits.get("host.pump_wait", [])]
    for q, name in ((0.5, "host.pump_wait_ms_p50"), (0.95, "host.pump_wait_ms_p95")):
        values[name] = percentile(waits, q)
        if not waits:
            why[name] = "no KernelPump.call in this workload"
    nodes = [p for p, s in spans.by_process.items() if any(x[0] == "host.kernel_run" for x in s)]
    if nodes and spans.window_s > 0:
        busy = [
            sum(s[2] - s[1] for s in spans.by_process[p] if s[0] == "host.kernel_run")
            for p in nodes
        ]
        values["host.kernel_busy_ratio"] = sum(busy) / len(busy) / spans.window_s
    else:
        values["host.kernel_busy_ratio"] = 0.0
        why["host.kernel_busy_ratio"] = "no validator kernel in this workload"

    # rpc.server / rpc.client (generator-side)
    rtts = [1000.0 * r for r in ctx.get("submit_rtts", [])]
    for q, name in ((0.5, "rpc.submit_rtt_ms_p50"), (0.95, "rpc.submit_rtt_ms_p95")):
        values[name] = percentile(rtts, q)
        if not rtts:
            why[name] = "no tx submits in this workload"
    per(ctx.get("overloaded", 0), ctx.get("submits", 0), "rpc.overloaded_per_submit", "submits")

    # chain.mempool
    adds = spans.named("mempool.add")
    values["mempool.add_ms_p50"] = percentile(spans.durations_ms("mempool.add"), 0.5)
    if not adds:
        why["mempool.add_ms_p50"] = "no mempool admissions in this workload"
    per(spans.total_ms("mempool.select"), blocks, "mempool.select_ms_per_block", "blocks")
    rejected = sum(1 for s in adds if s[6] not in ("accepted", "replaced"))
    per(rejected, txs, "mempool.rejected_per_tx", "committed txs")

    # consensus.poa
    mean(spans.durations_ms("poa.seal"), "poa.seal_ms", "block seals")
    mean(spans.durations_ms("poa.verify"), "poa.verify_ms", "block verifies")

    # chain.blocks
    per(txs, blocks, "blocks.txs_per_block", "blocks")
    per(spans.total_ms("blocks.validate_structure"), blocks, "blocks.validate_ms_per_block", "blocks")

    # contracts.runtime / contracts.vm
    applies = spans.named("contracts.apply")
    gas = sum(s[6] or 0 for s in applies)
    apply_s = sum(s[2] - s[1] for s in applies)
    per(1000.0 * apply_s, txs, "contracts.apply_ms_per_tx", "committed txs")
    per(len(applies), txs, "contracts.executions_per_tx", "committed txs")
    per(gas, len(applies), "contracts.gas_per_tx", "executions")
    per(gas, apply_s, "contracts.gas_per_s", "executions")

    # chain.state
    roots = spans.named("state.root")
    per(spans.total_ms("state.root"), blocks, "state.root_ms_per_block", "blocks")
    per(len(roots), blocks, "state.root_calls_per_block", "blocks")
    per(sum(1 for s in roots if s[6]), len(roots), "state.root_cache_hit_ratio", "state_root calls")

    # chain.store
    per(spans.total_ms("store.add"), blocks, "store.add_ms_per_block", "blocks")

    # query
    mean(spans.durations_ms("query.parse"), "query.parse_ms", "questions")
    mean(spans.durations_ms("query.decompose"), "query.decompose_ms", "questions")
    mean(spans.durations_ms("query.compose"), "query.compose_ms", "questions")

    # rpc.gateway: the data-bearing per-site calls
    calls = [
        1000.0 * (s[2] - s[1])
        for s in spans.named("gateway.site_call")
        if s[5] in ("site.query", "site.run_task")
    ]
    for q, name in ((0.5, "gateway.site_call_ms_p50"), (0.95, "gateway.site_call_ms_p95")):
        values[name] = percentile(calls, q)
        if not calls:
            why[name] = "no site calls in this workload"
    per(sum(ctx.get("answer_bytes", [])), queries, "gateway.bytes_per_query", "questions")

    # datamgmt / analytics / learning (site-side)
    tasks = spans.named("analytics.task")
    per(spans.total_ms("datamgmt.get_records"), len(tasks), "datamgmt.get_records_ms_per_task", "site tasks")
    analytic = [1000.0 * (s[2] - s[1]) for s in tasks if s[6] != "local_train"]
    values["analytics.task_ms_p50"] = percentile(analytic, 0.5)
    if not analytic:
        why["analytics.task_ms_p50"] = "no analytics tasks in this workload"
    mean([1000.0 * (s[2] - s[1]) for s in tasks if s[6] == "local_train"], "learning.local_train_ms", "local_train tasks")
    mean(spans.durations_ms("learning.aggregate"), "learning.aggregate_ms", "federated rounds")
    rounds = ctx.get("fl_round_ms", [])
    values["learning.fl_round_ms_p50"] = percentile(rounds, 0.5)
    if not rounds:
        why["learning.fl_round_ms_p50"] = "no federated rounds in this workload"

    busy = shares(spans)
    for _, layer in LAYERS:
        values[f"share.{layer}"] = busy.get(layer, 0.0)
        if layer not in busy:
            why[f"share.{layer}"] = "layer not exercised in this workload"
    return values, why


def _top_level(spans: Spans, prefix: str) -> List[tuple]:
    out = []
    for spans_of in spans.by_process.values():
        ids = {s[3] for s in spans_of if s[0].startswith(prefix)}
        out.extend(s for s in spans_of if s[0].startswith(prefix) and s[4] not in ids)
    return out


def per_tool_ms(spans: Spans) -> Dict[str, float]:
    by_tool: Dict[str, List[float]] = defaultdict(list)
    for s in spans.named("analytics.task"):
        by_tool[s[6]].append(1000.0 * (s[2] - s[1]))
    return {tool: statistics.median(v) for tool, v in sorted(by_tool.items())}


def shares(spans: Spans) -> Dict[str, float]:
    totals = spans.self_times()
    busy = sum(totals.values())
    return {layer: t / busy for layer, t in totals.items()} if busy else {}
