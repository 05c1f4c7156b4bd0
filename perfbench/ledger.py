"""Per-layer ledger: spans around every public entry point of a layer.

:func:`install` wraps, from outside the program, the public entry
points of seven layers.  A wrapped name is patched wherever it is
looked up: on its class for methods, and in every ``repro`` module
that bound it by name (``from repro.codec import encode_iblt`` inside
``core`` included), so no call slips past the ledger.  Wrappers change
no argument and no result, so a traced run does the same work and
produces the same outputs as an untraced one.

A layer's self time is the time during which its span is the
innermost open span: its duration minus the time its nested spans of
other layers cover.  Time inside an op with no span open is reported
as unattributed.  Spans are kept in memory (the outermost span of a
layer only; nested spans of the same layer add to the call count) and
written out as JSON lines when the run ends.

Coroutine functions (``PeerManager.fetch_next``) are counted but not
timed: their span would stay open across awaits while other tasks run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("pds", "codec", "core", "chain", "net", "peer", "obs")

class Ledger:
    """Span stack and per-layer self-time accounts for one run."""

    def __init__(self):
        self.stack: list = []
        self.active = False
        self._last = 0.0
        self._raw = dict.fromkeys(LAYERS, 0.0)
        self._raw_free = 0.0
        self.self_cal = dict.fromkeys(LAYERS, 0.0)
        self.unattributed_cal = 0.0
        self.traced_cal = 0.0
        self.calls = Counter()
        self.counts = Counter()
        self.spans: list = []
        self.op = 0
        self._seen_items: set = set()
        self._seen_roots: set = set()

    def _flush(self, now: float) -> None:
        if self.active:
            if self.stack:
                self._raw[self.stack[-1]] += now - self._last
            else:
                self._raw_free += now - self._last
        self._last = now

    def enter(self, layer: str) -> float:
        now = time.perf_counter()
        self._flush(now)
        self.stack.append(layer)
        return now

    def leave(self, layer: str, name: str, start: float) -> None:
        now = time.perf_counter()
        self._flush(now)
        self.stack.pop()
        if self.active:
            self.calls[layer] += 1
            if layer not in self.stack:
                self.spans.append((self.op, layer, name, start, now,
                                   len(self.stack)))

    def untimed(self, hook, *args):
        """Run a ledger hook without charging its time to any layer."""
        self._flush(time.perf_counter())
        try:
            return hook(*args)
        finally:
            self._last = time.perf_counter()

    def op_begin(self) -> None:
        self._last = time.perf_counter()
        self.active = True

    def pause(self) -> None:
        """Stop the op's clock (the reference loop runs next)."""
        self._flush(time.perf_counter())
        self.active = False

    def op_end(self, factor: float) -> None:
        """Close the paused op's accounts; ``factor`` calibrates them."""
        total = self._raw_free
        for layer in LAYERS:
            self.self_cal[layer] += self._raw[layer] * factor
            total += self._raw[layer]
            self._raw[layer] = 0.0
        self.unattributed_cal += self._raw_free * factor
        self.traced_cal += total * factor
        self._raw_free = 0.0
        self.op += 1

    # -- input properties -------------------------------------------------

    def note_items(self, items) -> None:
        if not self.active:
            return
        seen = self._seen_items
        for item in items:
            self.counts["items"] += 1
            if item in seen:
                self.counts["items_repeat"] += 1
            else:
                seen.add(bytes(item))

    def note_root(self, root: bytes) -> None:
        if not self.active:
            return
        self.counts["validations"] += 1
        if root in self._seen_roots:
            self.counts["validations_repeat"] += 1
        else:
            self._seen_roots.add(root)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for op, layer, name, start, end, depth in self.spans:
                out.write(json.dumps([op, layer, name, round(start, 9),
                                      round(end, 9), depth]) + "\n")


def _wrap(ledger: Ledger, layer: str, name: str, fn, before=None,
          after=None):
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def counted(*args, **kwargs):
            if ledger.active:
                ledger.calls[layer] += 1
            return await fn(*args, **kwargs)
        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            args = ledger.untimed(before, args)
        start = ledger.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            ledger.leave(layer, name, start)
        if after is not None and ledger.active:
            ledger.untimed(after, args, result)
        return result
    return traced


def _rebind(old, new) -> None:
    """Point every ``repro`` module-level binding of ``old`` at ``new``."""
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _patch_function(ledger, layer, module, attr, **hooks) -> None:
    old = getattr(module, attr)
    _rebind(old, _wrap(ledger, layer, attr, old, **hooks))


def _patch_method(ledger, layer, cls, attr, **hooks) -> None:
    raw = vars(cls)[attr]  # a renamed entry point must fail loudly
    name = f"{cls.__name__}.{attr}"
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(
            _wrap(ledger, layer, name, raw.__func__, **hooks)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(
            _wrap(ledger, layer, name, raw.__func__, **hooks)))
    elif inspect.isfunction(raw):
        setattr(cls, attr, _wrap(ledger, layer, name, raw, **hooks))


_DUNDERS = ("__contains__", "__iter__", "__len__")


def _public_methods(cls):
    return [attr for attr, raw in vars(cls).items()
            if (not attr.startswith("_") or attr in _DUNDERS)
            and (inspect.isfunction(raw)
                 or isinstance(raw, (classmethod, staticmethod)))]


def install(ledger: Ledger) -> None:
    """Wrap every layer's public entry points, once per process."""
    import repro.codec as codec
    import repro.chain.merkle as merkle
    import repro.chain.ordering as ordering
    import repro.core.params as params
    import repro.core.protocol1 as protocol1
    import repro.core.protocol2 as protocol2
    import repro.core.protocol3 as protocol3
    import repro.net.peer.framing as framing
    import repro.obs.metrics as metrics
    from repro.chain.block import Block
    from repro.chain.mempool import Mempool
    from repro.core.engine import GrapheneReceiverEngine, \
        GrapheneSenderEngine
    from repro.net.peer import PeerManager
    from repro.net.peer.transport import AsyncioTransport
    from repro.net.simulator import Simulator
    from repro.net.transport import LoopbackTransport, SimulatorTransport
    from repro.pds.bloom import BloomFilter
    from repro.pds.iblt import IBLT
    from repro.pds.riblt import RIBLTDecoder, RIBLTEncoder

    def listed(args):
        # Materialize one-shot iterables so the hook can read them.
        if len(args) > 1 and not isinstance(args[1], (list, tuple)):
            args = (args[0], list(args[1])) + args[2:]
        return args

    def bloom_items(args, _result):
        if len(args) > 1:
            ledger.note_items(args[1])

    def bloom_item(args, _result):
        if len(args) > 1:
            ledger.note_items((args[1],))

    def decoded(_args, result):
        ledger.counts["iblt_decodes"] += 1
        ledger.counts["iblt_decoded"] += int(bool(result.complete))

    def validated(args, _result):
        ledger.note_root(args[0].header.merkle_root)

    def encoded(_args, result):
        ledger.counts["encoded_bytes"] += len(result)

    def framed(args, result):
        ledger.counts["frames"] += 1
        ledger.counts["frame_overhead"] += len(result) - len(args[1]) \
            if len(args) > 1 else len(result)

    def symbols(args, _result):
        ledger.counts["p3_symbols"] += args[0].decoder.size

    # pds
    for cls in (BloomFilter, IBLT, RIBLTEncoder, RIBLTDecoder):
        for attr in _public_methods(cls):
            hooks = {}
            if cls is BloomFilter and attr in ("update", "contains_many"):
                hooks = {"before": listed, "after": bloom_items}
            elif cls is BloomFilter and attr in ("insert", "__contains__"):
                hooks = {"after": bloom_item}
            elif cls is IBLT and attr == "decode":
                hooks = {"after": decoded}
            _patch_method(ledger, "pds", cls, attr, **hooks)
    # codec
    for attr in [a for a in vars(codec) if a.startswith(("encode_",
                                                         "decode_"))
                 or a == "restore_bloom_load"]:
        if inspect.isfunction(getattr(codec, attr)):
            hooks = {"after": encoded} if attr.startswith("encode_") else {}
            _patch_function(ledger, "codec", codec, attr, **hooks)
    # core
    _patch_method(ledger, "core", GrapheneReceiverEngine, "start")
    for cls in (GrapheneReceiverEngine, GrapheneSenderEngine):
        _patch_method(ledger, "core", cls, "handle")
    for module, attrs in (
            (params, ("optimize_a", "optimize_b")),
            (protocol1, ("build_protocol1", "receive_protocol1")),
            (protocol2, ("build_protocol2_request", "respond_protocol2",
                         "finish_protocol2")),
            (protocol3, ("make_encoder", "build_protocol3",
                         "begin_protocol3", "ingest_symbols",
                         "finish_protocol3"))):
        for attr in attrs:
            hooks = {"after": symbols} if attr == "finish_protocol3" else {}
            _patch_function(ledger, "core", module, attr, **hooks)
    # chain
    for attr in _public_methods(Mempool):
        _patch_method(ledger, "chain", Mempool, attr)
    _patch_method(ledger, "chain", Block, "assemble")
    for attr in ("validate_candidate", "validated_order", "require_valid"):
        _patch_method(ledger, "chain", Block, attr,
                      after=validated)
    _patch_function(ledger, "chain", merkle, "merkle_root")
    _patch_function(ledger, "chain", ordering, "canonical_order")
    # net
    _patch_method(ledger, "net", Simulator, "run_cycles")
    for cls in (LoopbackTransport, SimulatorTransport):
        _patch_method(ledger, "net", cls, "deliver")
    # peer
    for attr in ("serve_block", "fetch_next"):
        _patch_method(ledger, "peer", PeerManager, attr)
    _patch_method(ledger, "peer", AsyncioTransport, "deliver")
    _patch_function(ledger, "peer", framing, "encode_frame", after=framed)
    for attr in ("feed", "eof"):
        _patch_method(ledger, "peer", framing.FrameDecoder, attr)
    # obs
    _patch_function(ledger, "obs", metrics, "collect_run_metrics")
    for cls in (metrics.MetricsRegistry, metrics.Counter, metrics.Gauge,
                metrics.Histogram):
        for attr in _public_methods(cls):
            _patch_method(ledger, "obs", cls, attr)
