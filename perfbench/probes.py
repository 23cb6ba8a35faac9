"""Traced-mode probes: spans around calls into each layer's public functions.

The launchers call :func:`install_node_probes` / :func:`install_site_probes`
before any host or server starts; the generator wraps its own calls with
:meth:`Recorder.span`.  A span is ``(name, start, end, id, parent, ref,
extra)``: ``ref`` is the tx id, block id, query id or tool it belongs to,
``extra`` a small outcome (admission code, gas, cache hit).  Parents come
from a context variable, so nesting is right on plain threads, on
``asyncio.to_thread`` workers and across asyncio tasks.  Timestamps are
``time.monotonic()``, one clock for every process on the host.

Spans stay in memory and are written as JSON lines when the process ends.
Nothing here is imported in an untraced run.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=0)


class Recorder:
    """In-memory span sink for one process."""

    def __init__(self, process: str):
        self.process = process
        self.spans: List[tuple] = []
        self.waits: Dict[str, List[tuple]] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def record(self, name, start, end, span_id, parent, ref="", extra=None) -> None:
        self.spans.append((name, start, end, span_id, parent, ref, extra))

    def wait(self, name: str, seconds: float) -> None:
        """A queueing delay that ended now (no span: nothing runs in it)."""
        with self._lock:
            self.waits.setdefault(name, []).append((time.monotonic(), seconds))

    def span(self, name: str, ref: str = ""):
        """Context manager recording one span (usable in coroutines too)."""
        return _Span(self, name, ref)

    def wrap(
        self,
        name: str,
        fn: Callable,
        ref: Optional[Callable[..., str]] = None,
        extra: Optional[Callable[..., Any]] = None,
        keep: Optional[Callable[[Any], bool]] = None,
    ) -> Callable:
        """``fn`` recording a span per call.

        ``ref(args, kwargs, result)`` and ``extra(args, kwargs, result)`` run
        after the clock stops; ``keep(result)`` may drop a span (a kernel
        pass that ran no event).
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _current.get()
            span_id = next(self._ids)
            token = _current.set(span_id)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                _current.reset(token)
            if keep is None or keep(result):
                self.record(
                    name,
                    start,
                    end,
                    span_id,
                    parent,
                    ref(args, kwargs, result) if ref else "",
                    extra(args, kwargs, result) if extra else None,
                )
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"process": self.process, "waits": self.waits}, out)
            out.write("\n")
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")


class _Span:
    def __init__(self, recorder: Recorder, name: str, ref: str):
        self.recorder = recorder
        self.name = name
        self.ref = ref

    def __enter__(self):
        self.parent = _current.get()
        self.span_id = next(self.recorder._ids)
        self.token = _current.set(self.span_id)
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        end = time.monotonic()
        _current.reset(self.token)
        self.recorder.record(
            self.name, self.start, end, self.span_id, self.parent, self.ref
        )
        return False


def _patch(owner: Any, attr: str, wrapper_factory: Callable[[Callable], Callable]) -> None:
    setattr(owner, attr, wrapper_factory(getattr(owner, attr)))


def _tx_ref(args, kwargs, result) -> str:
    tx = args[1] if len(args) > 1 else kwargs.get("tx")
    return getattr(tx, "tx_id", "")


def install_node_probes(rec: Recorder) -> None:
    """Wrap the chain-side layers of a validator process."""
    from repro.chain import blocks as blocks_mod
    from repro.chain.mempool.pool import Mempool
    from repro.chain.state import StateDB
    from repro.chain.store import ChainStore
    from repro.chain.transactions import Transaction
    from repro.common.signatures import PrivateKey, PublicKey
    from repro.consensus import node as node_mod
    from repro.consensus.poa import ProofOfAuthority
    from repro.contracts.runtime import ContractExecutor
    from repro.p2p import gossip, host, sync, wire
    from repro.sim.kernel import Kernel

    # common.signatures
    _patch(
        Transaction,
        "verify_signature",
        lambda fn: rec.wrap(
            "signatures.tx_verify",
            fn,
            ref=lambda a, k, r: f"{a[0].tx_id}:{a[0].signature[:8].hex()}",
        ),
    )
    _patch(PublicKey, "verify", lambda fn: rec.wrap("signatures.verify", fn))
    _patch(PrivateKey, "sign", lambda fn: rec.wrap("signatures.sign", fn))

    # p2p.wire: patch the module and every module that imported the names.
    def payload_bytes(args, kwargs, result):
        return wire.payload_size(args[0])

    tx_decode = rec.wrap(
        "wire.tx_from_wire", wire.tx_from_wire, ref=lambda a, k, r: r.tx_id, extra=payload_bytes
    )
    block_decode = rec.wrap(
        "wire.block_from_wire",
        wire.block_from_wire,
        ref=lambda a, k, r: r.block_id,
        extra=payload_bytes,
    )
    for module in (wire, host, gossip):
        if hasattr(module, "tx_from_wire"):
            module.tx_from_wire = tx_decode
    for module in (wire, gossip, sync):
        module.block_from_wire = block_decode

    # chain.mempool
    _patch(
        Mempool,
        "add",
        lambda fn: rec.wrap(
            "mempool.add", fn, ref=_tx_ref, extra=lambda a, k, r: getattr(r, "code", str(r))
        ),
    )
    _patch(
        Mempool,
        "select",
        lambda fn: rec.wrap("mempool.select", fn, extra=lambda a, k, r: len(r)),
    )

    # chain.blocks
    _patch(
        blocks_mod.Block,
        "validate_structure",
        lambda fn: rec.wrap(
            "blocks.validate_structure", fn, ref=lambda a, k, r: a[0].block_id
        ),
    )
    build = rec.wrap(
        "blocks.build_block",
        blocks_mod.build_block,
        ref=lambda a, k, r: r.block_id,
        extra=lambda a, k, r: len(r.transactions),
    )
    blocks_mod.build_block = build
    node_mod.build_block = build

    # consensus.poa
    _patch(
        ProofOfAuthority,
        "seal",
        lambda fn: rec.wrap("poa.seal", fn, ref=lambda a, k, r: r.block_id),
    )
    _patch(
        ProofOfAuthority,
        "verify",
        lambda fn: rec.wrap("poa.verify", fn, ref=lambda a, k, r: a[1].block_id),
    )

    # contracts.runtime / contracts.vm
    _patch(
        ContractExecutor,
        "apply",
        lambda fn: rec.wrap(
            "contracts.apply",
            fn,
            ref=lambda a, k, r: r.tx_id,
            extra=lambda a, k, r: r.gas_used,
        ),
    )

    # chain.state: a call is a cache hit when the instance already holds
    # its root, the condition StateDB.stats() counts as root_cache_hits.
    original_root = StateDB.state_root

    def state_root(self):
        hit = self._root_cache is not None
        return original_root(self), hit

    timed_root = rec.wrap(
        "state.root", state_root, extra=lambda a, k, r: r[1]
    )

    @functools.wraps(original_root)
    def state_root_probe(self):
        return timed_root(self)[0]

    StateDB.state_root = state_root_probe

    # chain.store
    _patch(
        ChainStore,
        "add",
        lambda fn: rec.wrap("store.add", fn, ref=lambda a, k, r: a[1].block_id),
    )

    # p2p.host: queueing delay of KernelPump.call, and busy kernel passes.
    original_call = host.KernelPump.call

    @functools.wraps(original_call)
    def call(self, fn, timeout_s=30.0):
        queued = time.monotonic()

        def timed():
            rec.wait("host.pump_wait", time.monotonic() - queued)
            return fn()

        return original_call(self, timed, timeout_s)

    host.KernelPump.call = call
    _patch(
        Kernel,
        "run",
        lambda fn: rec.wrap("host.kernel_run", fn, keep=lambda ran: bool(ran)),
    )


def install_site_probes(rec: Recorder) -> None:
    """Wrap the data and analytics layers of a site process."""
    from repro.datamgmt.store import HospitalDataStore
    from repro.offchain.tasks import TaskRunner

    _patch(
        HospitalDataStore,
        "get_records",
        lambda fn: rec.wrap(
            "datamgmt.get_records",
            fn,
            ref=lambda a, k, r: a[1],
            extra=lambda a, k, r: len(r),
        ),
    )
    _patch(
        TaskRunner,
        "run",
        lambda fn: rec.wrap(
            "analytics.task",
            fn,
            ref=lambda a, k, r: a[1],
            extra=lambda a, k, r: a[2],
        ),
    )
