"""Lifecycle benchmark: commit latency over real TCP and site-query latency.

    python3 perfbench/run.py --workload transfer --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Boots the real multi-process system on loopback TCP (three PoA validator
processes for the chain workloads, three hospital-site processes for
``site_query``), drives it open-loop at the workload's fixed Poisson rate
from this single generator process, checks every output, and prints the
metrics.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer ones (the launchers
then wrap each layer's public functions and write spans at exit).  A run
that fails a correctness check prints ``"correct": false`` with no
metrics and exits 1.  See README.md for what each workload isolates.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPS = 3  # boots per untraced run; setup_s is their median
RUN_DEADLINE_S = 175.0  # watchdog: kill everything, exit 3
DRAIN_S = 15.0  # after the last due time, wait this long for stragglers
BOOT_TIMEOUT_S = 90.0
GEN_LAG_BOUND_MS = 50.0  # a run whose generator ran later than this fails


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- boot ------------------------------------------------------------------------
def boot_chain(fleet, workload, trace: bool) -> None:
    from checks import call_all
    from workloads import VALIDATORS

    for name in VALIDATORS:
        fleet.spawn("node.py", name, ["--name", name, "--workload", workload.name], trace)
    addrs = fleet.wait_listening(BOOT_TIMEOUT_S)
    everyone = " ".join(f"{h}:{p}" for h, p in addrs.values())
    for name in VALIDATORS:
        fleet.tell(name, everyone)
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while True:  # ready = every validator connected to both others
        status = asyncio.run(call_all(addrs, "ctl.status"))
        if all(len(s["peers"]) == len(VALIDATORS) - 1 for s in status.values()):
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"mesh did not form: {status}")
        time.sleep(0.02)


def boot_sites(fleet, workload, trace: bool) -> None:
    from drive import warm_sites
    from workloads import FL_VARIANTS, QUESTIONS, SITES, fl_params

    for name in SITES:
        fleet.spawn("site.py", name, ["--site", name, "--workload", workload.name], trace)
    addrs = fleet.wait_listening(BOOT_TIMEOUT_S)
    # Ready = every site has answered each kind of request once.
    asyncio.run(warm_sites(addrs, QUESTIONS, {v: fl_params(v) for v in range(FL_VARIANTS)}))


# -- one workload ----------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool, watchdog) -> dict:
    from drive import drive_chain, drive_sites
    from fleet import Fleet
    from report import beyond, percentile
    from workloads import FL_VARIANTS, WORKLOADS, build_chain_world, chain_ops, fl_params, site_ops

    workload = WORKLOADS[name]
    run_dir = os.path.join(OUT, f"{name}-seed{seed}-trace")
    os.makedirs(run_dir if trace else OUT, exist_ok=True)
    chain = workload.kind == "chain"

    # Inputs first: signing and encoding stay outside setup and the window.
    if chain:
        ops = chain_ops(workload, build_chain_world(workload, populate=False), seed, seconds)
    else:
        ops = site_ops(workload, seed, seconds)
        fl_inputs = {v: fl_params(v) for v in range(FL_VARIANTS)}

    boot = boot_chain if chain else boot_sites
    setups = []
    reps = 1 if trace else SETUP_REPS
    for rep in range(reps):
        fleet = Fleet(SRC, run_dir, watchdog)
        started = time.monotonic()
        try:
            boot(fleet, workload, trace)
        except BaseException:
            fleet.stop()
            raise
        setups.append(time.monotonic() - started)
        if rep < reps - 1:
            fleet.stop()

    rec = None
    ctx = {}
    try:
        if chain:
            stats = asyncio.run(drive_chain(ops, fleet.addrs, seconds, DRAIN_S))
        else:
            if trace:
                rec = _trace_generator()
            stats = asyncio.run(
                drive_sites(ops, fleet.addrs, seconds, DRAIN_S, fl_inputs, rec)
            )
        window = (stats.start, time.monotonic())
        rss_mb = fleet.peak_rss_mb()
        if chain:
            from checks import call_all, check_chain

            if trace:
                counters = asyncio.run(call_all(fleet.addrs, "ctl.counters"))
                ctx["p2p_counters"] = {
                    k: sum(c[k] for c in counters.values()) for k in next(iter(counters.values()))
                }
            failures, ctx["blocks"] = check_chain(
                workload, lambda: build_chain_world(workload), ops, stats, fleet.addrs
            )
    finally:
        fleet.stop()
    if not chain:
        from checks import check_sites

        failures = check_sites(workload, ops, stats, fl_inputs)

    lag_p95_ms = 1000.0 * percentile(stats.lags, 0.95)
    if lag_p95_ms > GEN_LAG_BOUND_MS:
        failures.append(f"generator ran late: lag p95 {lag_p95_ms:.1f} ms > {GEN_LAG_BOUND_MS} ms")

    done_ok = ("committed", "answered")
    outcomes = stats.outcomes
    finished = [(op, o) for op, o in zip(ops, outcomes) if o.status in done_ok]
    failed = len(outcomes) - len(finished)
    if chain:
        main_lat = [1000.0 * (o.done - o.due) for _, o in finished]
        fl_lat = []
    else:
        main_lat = [1000.0 * (o.done - o.due) for op, o in finished if op.question is not None]
        fl_lat = [1000.0 * (o.done - o.due) for op, o in finished if op.question is None]
    last_done = max((o.done for _, o in finished), default=stats.start)
    throughput = len(finished) / max(1e-9, last_done - stats.start)

    result = {
        "workload": name,
        "kind": workload.kind,
        "seed": seed,
        "rate_per_s": workload.rate_per_s,
        "attempted": len(outcomes),
        "failed": failed,
        "failures": failures,
        "setup_s": statistics.median(setups),
        "setups_s": setups,
        "p50_ms": percentile(main_lat, 0.5),
        "p95_ms": percentile(main_lat, 0.95),
        "samples": len(main_lat),
        "beyond_p95": beyond(len(main_lat), 0.95),
        "fl_p50_ms": percentile(fl_lat, 0.5),
        "fl_rounds": len(fl_lat),
        "throughput": throughput,
        "failed_ratio": failed / len(outcomes),
        "gen_lag_p95_ms": lag_p95_ms,
        "rss_mb": rss_mb,
        "submits": stats.submits,
        "overloaded": stats.overloaded,
        "refused_retries": stats.refused_retries,
        "statuses": _status_counts(outcomes),
        "example_error": next((o.status for o in outcomes if o.status not in done_ok), ""),
    }
    if trace:
        from report import Spans, per_layer, per_tool_ms

        ctx.update(
            committed_txs=len(finished) if chain else 0,
            answered_queries=0 if chain else len(main_lat),
            submit_rtts=stats.rtts,
            submits=stats.submits,
            overloaded=stats.overloaded,
            answer_bytes=stats.answers_bytes,
            fl_round_ms=fl_lat,
        )
        spans = Spans(fleet.trace_files, window, rec)
        result["per_layer"], result["dropped"] = per_layer(spans, ctx)
        result["per_tool_ms"] = per_tool_ms(spans)
        if rec is not None:
            rec.dump(os.path.join(run_dir, "spans-generator.jsonl"))
        result["span_files"] = sorted(os.listdir(run_dir))
        result["span_dir"] = os.path.relpath(run_dir, ROOT)
    elif not failures:
        path = os.path.join(OUT, f"untraced-{name}-seed{seed}.json")
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"p50_ms": result["p50_ms"], "p95_ms": result["p95_ms"]}, out)
    return result


def _trace_generator():
    """Generator-side spans: parse/decompose/compose, site calls, aggregation."""
    import functools

    from probes import Recorder
    from repro.rpc import gateway

    rec = Recorder("generator")
    gateway.decompose = rec.wrap("query.decompose", gateway.decompose)
    gateway.compose = rec.wrap("query.compose", gateway.compose)
    original = gateway.TcpGateway.acall

    @functools.wraps(original)
    async def acall(self, site, method, params=None, **kwargs):
        with rec.span("gateway.site_call", method):
            return await original(self, site, method, params, **kwargs)

    gateway.TcpGateway.acall = acall
    return rec


def _status_counts(outcomes) -> dict:
    counts: dict = {}
    for o in outcomes:
        key = o.status.split(":")[0]
        counts[key] = counts.get(key, 0) + 1
    return counts


# -- output ----------------------------------------------------------------------
def end_to_end(result: dict) -> dict:
    """The BENCHMARK.json end-to-end metrics (names shared by all workloads)."""
    return {
        "setup_s": {"value": result["setup_s"], "unit": "s"},
        "latency_p50_ms": {"value": result["p50_ms"], "unit": "ms"},
        "throughput_per_s": {"value": result["throughput"], "unit": "1/s"},
        "node_rss_mb": {"value": result["rss_mb"], "unit": "MB"},
    }


LAYER_UNITS = (
    ("_ms", "ms"),
    ("_ratio", "ratio"),
    ("share.", "ratio"),
    ("bytes_", "bytes"),
    ("gas_per_s", "gas/s"),
    ("gas_per_tx", "gas"),
)


def layer_unit(metric: str) -> str:
    for needle, unit in LAYER_UNITS:
        if needle in metric:
            return unit
    return "count"


def print_human(result: dict, trace: bool) -> None:
    w = result["workload"]
    chain = result["kind"] == "chain"
    print(f"== {w}  seed={result['seed']}  offered {result['rate_per_s']}/s open-loop Poisson")
    print(f"   setup_s            {result['setup_s']:.3f} s   (median of {len(result['setups_s'])}: "
          + ", ".join(f"{s:.2f}" for s in result["setups_s"]) + ")")
    if chain:
        named = (("commit_p50_ms", "p50_ms", "ms"), ("commit_p95_ms", "p95_ms", "ms"),
                 ("commit_tps", "throughput", "tx/s"))
    else:
        named = (("query_p50_ms", "p50_ms", "ms"), ("query_p95_ms", "p95_ms", "ms"),
                 ("fl_round_p50_ms", "fl_p50_ms", "ms"), ("ops_per_s", "throughput", "1/s"))
    for label, key, unit in named:
        print(f"   {label:<18} {result[key]:.2f} {unit}")
    print(f"   failed_ratio       {result['failed_ratio']:.4f} ratio ({result['failed']}/{result['attempted']})")
    print(f"   node_rss_mb        {result['rss_mb']:.1f} MB")
    print(f"   gen_lag_p95_ms     {result['gen_lag_p95_ms']:.2f} ms (bound {GEN_LAG_BOUND_MS})")
    print(f"   samples            {result['samples']} ({result['beyond_p95']} beyond p95"
          + ("" if result["beyond_p95"] >= 10 else "; fewer than 10: p95 is indicative") + ")"
          + (f", {result['fl_rounds']} federated rounds" if not chain else ""))
    print(f"   submits            {result['submits']} (overloaded {result['overloaded']}, "
          f"pool refusals retried {result['refused_retries']}); outcomes {result['statuses']}")
    if result["example_error"]:
        print(f"   first failed op    {result['example_error'][:300]}")
    if not trace:
        return
    print("   per-layer (traced run):")
    for metric, value in result["per_layer"].items():
        if metric.startswith("share."):
            continue  # printed sorted below
        note = f"   [n/a: {result['dropped'][metric]}]" if metric in result["dropped"] else ""
        print(f"     {metric:<38} {value:12.4f} {layer_unit(metric)}{note}")
    print("   self-time share by layer (busy spans):")
    shares = [(k[len("share."):], v) for k, v in result["per_layer"].items() if k.startswith("share.")]
    for layer, share in sorted(shares, key=lambda kv: -kv[1]):
        if share:
            print(f"     {layer:<20} {100 * share:6.1f} %")
    if result["per_tool_ms"]:
        print("   analytics task p50 by tool: "
              + ", ".join(f"{t}={v:.1f} ms" for t, v in result["per_tool_ms"].items()))
    refs = []
    for entry in sorted(os.listdir(OUT)):
        if entry.startswith(f"untraced-{w}-seed"):
            with open(os.path.join(OUT, entry), encoding="utf-8") as handle:
                refs.append(json.load(handle))
    if refs:
        p50 = statistics.median(r["p50_ms"] for r in refs)
        p95 = statistics.median(r["p95_ms"] for r in refs)
        print(f"   tracing overhead: p50 {result['p50_ms'] - p50:+.1f} ms, "
              f"p95 {result['p95_ms'] - p95:+.1f} ms (this traced run minus the median of "
              f"{len(refs)} untraced runs in this checkout)")
    else:
        print("   tracing overhead: n/a (no untraced run of this workload in this checkout yet)")
    print(f"   spans written to {result['span_dir']}/: {', '.join(result['span_files'])}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from fleet import Watchdog
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"perfbench: unknown workload {args.workload!r}; have {list(WORKLOADS)}",
              file=sys.stderr)
        return 2

    def on_term(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    results = []
    for name in names:
        watchdog = Watchdog(RUN_DEADLINE_S)
        try:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), watchdog))
        finally:
            watchdog.cancel()
        print_human(results[-1], bool(args.trace))
    failures = [f"{r['workload']}: {f}" for r in results for f in r["failures"]]
    for failure in failures:
        print(f"CHECK FAILED {failure}")
    summary = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    if not failures:
        for r in results:
            prefix = "" if len(results) == 1 else f"{r['workload']}."
            if args.trace:
                metrics = {
                    k: {"value": v, "unit": layer_unit(k)} for k, v in r["per_layer"].items()
                }
            else:
                metrics = end_to_end(r)
            summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
