"""The benchmark's four workloads, each a closed loop over seeded inputs.

Every workload builds its initial state through :class:`Meter` set-up
chunks, then runs a fixed number of ops: ``RATE`` per second of
``--seconds``, sized so a run takes about that long on this host.  An op's inputs are prepared
outside the timed region; the op itself is timed and calibrated by the
meter; its output is checked outside the timed region.  An op counts
as a success only when its check passes; an exception inside an op is
a counted failure, recorded by type, never a crash.

Exact per-op quantities (encoded wire bytes, the paper's analytic
bytes, receiver roundtrips) are pure functions of the seed and the op
count, so two runs of one seed report them bit for bit.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import List

from repro.chain.block import Block
from repro.chain.mempool import Mempool
from repro.chain.transaction import TransactionGenerator
from repro.codec import decode_tx_list, encode_tx_list
from repro.core.engine import (
    ActionKind,
    GrapheneReceiverEngine,
    GrapheneSenderEngine,
)
from repro.core.params import GrapheneConfig
from repro.core.sizing import CostBreakdown
from repro.net import Node, Simulator, connect_scale_free
from repro.net.peer import PeerManager
from repro.net.recovery import RecoveryPolicy
from repro.net.topology import GeoLinkModel
from repro.net.transport import LoopbackTransport
from repro.obs.scenario import run_propagation_scenario


@dataclass
class Op:
    """One attempted op: outcome, class, timing and exact quantities."""

    ok: bool
    cls: str
    wall: float = 0.0
    cal: float = 0.0
    wire: float = 0.0
    model: float = 0.0
    roundtrips: float = 0.0
    error: str = ""
    #: Excluded from the latency quantiles (sim's first interval also
    #: runs the scenario's node and topology set-up).
    timed: bool = True


class WireCount:
    """Stands in for the sender engine on a loopback transport and
    counts every encoded byte crossing to or from it.  Every message of
    a two-engine exchange has the sender on one end, so this is the
    exchange's whole encoded traffic."""

    def __init__(self, engine):
        self.engine = engine
        self.bytes = 0

    def handle(self, command, message):
        self.bytes += len(message)
        action = self.engine.handle(command, message)
        if action.kind is ActionKind.SEND:
            self.bytes += len(action.message)
        return action


def _model_bytes(events) -> int:
    return CostBreakdown.from_events(events).total()


def _charge(op: Op, meter, live: dict) -> None:
    """Charge an op with the traffic of its loopback exchange.  An op
    that raised is charged with what crossed before it raised."""
    receiver = live.get("receiver")
    if receiver is None:
        return
    push_wire, push_model = live.get("push", (0, 0))
    op.wire = live["sender"].bytes + push_wire
    op.model = _model_bytes(receiver.telemetry) + push_model
    op.roundtrips = receiver.roundtrips
    meter.count("p1_attempts", 1)
    meter.count("p1_decoded", int(not receiver.p1_decode_failed))
    meter.count("p2_ops", int(receiver.protocol_used == 2))


# ---------------------------------------------------------------------------
# relay: distinct n~2000 blocks into one evolving receiver mempool
# ---------------------------------------------------------------------------

class Relay:
    """One receiving node takes a stream of distinct ~2000-tx blocks.

    The receiver's mempool evolves between blocks: the next block's
    txs arrive, confirmed txs leave, and a backlog of unconfirmed txs
    grows or shrinks to move the mempool multiple m/n through three
    regimes: near-drained (m ~ n, as in the BCH deployment), typical
    (m = 2n) and large (m = 4n).  A quarter of blocks carry a few txs
    the receiver lacks, so Protocol 2 runs.

    Blocks follow a shuffled 20-block cycle with fixed class counts,
    so every run has the same op mix.  The counts put the latency
    median inside the typical-P1 class and the 90th percentile inside
    the Protocol 2 classes, never in the gap between two classes.
    """

    name = "relay"
    N = 2000
    #: (regime, receiver lacks txs) -> blocks per 20-block cycle.
    CYCLE = (("drained", False),) * 5 + (("drained", True),) \
        + (("typical", False),) * 8 + (("typical", True),) * 2 \
        + (("large", False),) * 2 + (("large", True),) * 2
    MULTIPLE = {"typical": 2.0, "large": 4.0}
    CHUNK = 250
    RATE = 25.0

    def __init__(self):
        self.config = GrapheneConfig()

    def build(self, seed: int, meter) -> dict:
        gen = TransactionGenerator(seed=seed)
        pool = meter.chunk(Mempool)
        backlog: List = []
        for _ in range(2 * self.N // self.CHUNK):
            batch = meter.chunk(gen.make_batch, self.CHUNK)
            meter.chunk(pool.add_many, batch)
            backlog.extend(batch)
        return {"gen": gen, "pool": pool, "backlog": backlog,
                "rng": random.Random(seed * 7919 + 1)}

    def _prepare(self, state: dict, index: int):
        gen, pool, rng = state["gen"], state["pool"], state["rng"]
        backlog = state["backlog"]
        if index % len(self.CYCLE) == 0:
            rng.shuffle(state.setdefault("cycle", list(self.CYCLE)))
        regime, p2 = state["cycle"][index % len(self.CYCLE)]
        n = rng.randint(self.N - 100, self.N + 100)
        txs = gen.make_batch(n)
        block = Block.assemble(txs + [gen.make_coinbase()],
                               timestamp=index)
        lacks = rng.randint(3, 12) if p2 else 0
        pool.add_many(txs[lacks:])
        if regime == "drained":
            others = rng.randint(10, 40)
        else:
            others = int(n * self.MULTIPLE[regime]) - (n - lacks)
        if others > len(backlog):
            fresh = gen.make_batch(others - len(backlog))
            pool.add_many(fresh)
            backlog.extend(fresh)
        else:
            for tx in backlog[:len(backlog) - others]:
                pool.remove(tx.txid)
            del backlog[:len(backlog) - others]
        return block, f"{regime}-p{2 if lacks else 1}"

    def _exchange(self, block, pool, live: dict):
        live["sender"] = sender = WireCount(
            GrapheneSenderEngine(block, self.config))
        live["receiver"] = receiver = GrapheneReceiverEngine(pool,
                                                            self.config)
        return LoopbackTransport(sender, receiver).run()

    def run(self, state: dict, ops: int, meter) -> None:
        pool = state["pool"]
        for index in range(ops):
            block, cls = self._prepare(state, index)
            live: dict = {}
            final, error, wall, cal = meter.time(self._exchange, block,
                                                 pool, live)
            op = Op(ok=False, cls=cls, wall=wall, cal=cal, error=error)
            if final is not None:
                if final.kind is ActionKind.DONE:
                    op.ok = [tx.txid for tx in final.txs] == block.txids
                else:
                    op.error = "Failed"
            _charge(op, meter, live)
            meter.record(op)
            pool.remove_block(block.txids)


# ---------------------------------------------------------------------------
# sync: two m~n pools re-synced continuously
# ---------------------------------------------------------------------------

class Sync:
    """Two peers re-sync ~3000-tx pools round after round (paper 3.2.1).

    Between rounds both pools ingest shared txs, each ingests a few
    private ones, and a block confirms the oldest txs, so the union of
    the pools stays at 3000 txs.  A round reconciles A's pool into B with
    the core engines over a loopback transport, B adopts what it
    recovered, and B pushes A the txs A lacks (encoded on the wire);
    the mempool writes sit inside the timed round.
    """

    name = "sync"
    POOL = 3000
    CHUNK = 250
    RATE = 24.0

    def __init__(self):
        self.config = GrapheneConfig()

    def build(self, seed: int, meter) -> dict:
        gen = TransactionGenerator(seed=seed)
        a, b = meter.chunk(Mempool), meter.chunk(Mempool)
        order: List = []
        for _ in range(self.POOL // self.CHUNK):
            batch = meter.chunk(gen.make_batch, self.CHUNK)
            meter.chunk(a.add_many, batch)
            meter.chunk(b.add_many, batch)
            order.extend(tx.txid for tx in batch)
        return {"gen": gen, "a": a, "b": b, "order": order,
                "rng": random.Random(seed * 7919 + 2)}

    def _prepare(self, state: dict) -> None:
        gen, a, b, rng = state["gen"], state["a"], state["b"], state["rng"]
        order = state["order"]
        shared = gen.make_batch(rng.randint(180, 220))
        only_a = gen.make_batch(rng.randint(20, 40))
        only_b = gen.make_batch(rng.randint(20, 40))
        a.add_many(shared + only_a)
        b.add_many(shared + only_b)
        order.extend(tx.txid for tx in shared + only_a + only_b)
        # A block confirms the oldest txs: the union stays at POOL.
        confirmed = order[:len(order) - self.POOL]
        del order[:len(confirmed)]
        a.remove_block(confirmed)
        b.remove_block(confirmed)

    def _round(self, a: Mempool, b: Mempool, live: dict):
        sender_txs = a.transactions()
        live["sender"] = sender = WireCount(GrapheneSenderEngine(
            txs=sender_txs, config=self.config))
        live["receiver"] = receiver = GrapheneReceiverEngine(
            b, self.config, mode="mempool")
        final = LoopbackTransport(sender, receiver).run()
        if final.kind is not ActionKind.DONE:
            return final
        reconciled = receiver.reconciled
        b.add_many(reconciled.values())
        sender_ids = {tx.txid for tx in sender_txs}
        push = [tx for tx in b
                if tx.txid not in reconciled and tx.txid not in sender_ids]
        blob = encode_tx_list(push)
        a.add_many(decode_tx_list(blob)[0])
        live["push"] = (len(blob), sum(tx.size for tx in push))
        return final

    def run(self, state: dict, ops: int, meter) -> None:
        a, b = state["a"], state["b"]
        for _ in range(ops):
            self._prepare(state)
            live: dict = {}
            final, error, wall, cal = meter.time(self._round, a, b, live)
            protocol = getattr(live.get("receiver"), "protocol_used", 0)
            op = Op(ok=False, cls=f"p{protocol}", wall=wall, cal=cal,
                    error=error)
            if final is not None:
                if final.kind is ActionKind.DONE:
                    op.ok = set(a.txids) == set(b.txids)
                else:
                    op.error = "Failed"
            _charge(op, meter, live)
            meter.record(op)
            if not op.ok:
                # Start the next round from the intended state.
                a.add_many(b.transactions())
                b.add_many(a.transactions())


# ---------------------------------------------------------------------------
# mesh: two serving PeerManagers and one fetcher over localhost TCP
# ---------------------------------------------------------------------------

class _Tap:
    """Counts the bytes written to every connection of a peer group."""

    def __init__(self):
        self.bytes = 0
        self._tapped = set()

    def wrap(self, managers) -> None:
        for manager in managers:
            for mc in list(manager.connections.values()):
                writer = mc.conn.writer
                if writer in self._tapped:
                    continue
                self._tapped.add(writer)
                write = writer.write

                def counted(data, write=write):
                    self.bytes += len(data)
                    write(data)
                writer.write = counted


class Mesh:
    """Three PeerManagers in one event loop, P3 blocks of n~200.

    Both servers serve and announce every block, so the fetcher
    suppresses one duplicate inv per block; blocks go out in batches
    of three, so several roots are in flight on the two connections at
    once.  An op is one block fetch; its latency runs from the batch's
    announcement to the fetch's completion (the three fetches of a
    batch interleave and finish close together).  The reference loop
    runs between batches, when no exchange is in flight.  A connection
    that dies under a fetch is re-dialled before the next batch.
    """

    name = "mesh"
    N = 200
    BATCH = 3
    RATE = 200.0
    FETCH_TIMEOUT = 30.0

    def __init__(self):
        self.config = GrapheneConfig(protocol=3)
        # Timers far beyond any exchange, so the ladder never re-emits
        # and the exact byte counts cannot depend on host speed.
        self.policy = RecoveryPolicy(timeout_base=20.0)
        self.loop = asyncio.new_event_loop()

    def build(self, seed: int, meter) -> dict:
        return self.loop.run_until_complete(
            self._build(seed, meter))

    async def _build(self, seed: int, meter) -> dict:
        gen = TransactionGenerator(seed=seed)
        servers = [meter.chunk(PeerManager, node_id=f"server{i}",
                               config=self.config, policy=self.policy)
                   for i in range(2)]
        pool = meter.chunk(Mempool)
        fetcher = meter.chunk(PeerManager, node_id="fetcher", mempool=pool,
                              config=self.config, policy=self.policy)
        ports = [await meter.achunk(server.listen) for server in servers]
        for port in ports:
            await meter.achunk(fetcher.connect, "127.0.0.1", port)
        batch = meter.chunk(gen.make_batch, self.N)
        meter.chunk(pool.add_many, batch)
        return {"gen": gen, "servers": servers, "fetcher": fetcher,
                "ports": ports, "pool": pool, "backlog": batch,
                "tap": _Tap(), "rng": random.Random(seed * 7919 + 3)}

    def teardown(self, state: dict) -> None:
        async def close():
            for manager in [state["fetcher"], *state["servers"]]:
                await manager.close()
        self.loop.run_until_complete(close())

    def run(self, state: dict, ops: int, meter) -> None:
        self.loop.run_until_complete(
            self._run(state, ops, meter))

    def _prepare(self, state: dict, index: int):
        gen, pool, rng = state["gen"], state["pool"], state["rng"]
        blocks = []
        for j in range(self.BATCH):
            txs = gen.make_batch(rng.randint(self.N - 20, self.N + 20))
            blocks.append(Block.assemble(
                txs + [gen.make_coinbase()], timestamp=index + j))
            lacks = rng.randint(1, 4) if rng.random() < 0.25 else 0
            pool.add_many(txs[lacks:])
        return blocks

    async def _redial(self, state: dict, meter) -> None:
        fetcher = state["fetcher"]
        await asyncio.sleep(0)
        live = {mc.address for mc in fetcher.connections.values()}
        for port in state["ports"]:
            if f"127.0.0.1:{port}" not in live:
                await fetcher.connect("127.0.0.1", port)
                meter.count("redials", 1)

    async def _run(self, state: dict, ops: int, meter) -> None:
        servers, fetcher, pool = state["servers"], state["fetcher"], \
            state["pool"]
        tap = state["tap"]
        done = 0
        index = 0
        while done < ops:
            await self._redial(state, meter)
            await asyncio.sleep(0)
            tap.wrap([fetcher, *servers])
            blocks = self._prepare(state, index)[:ops - done]
            index += len(blocks)
            by_root = {block.header.merkle_root: block for block in blocks}
            wire0, invs0 = tap.bytes, fetcher.invs_seen
            results = []
            meter.begin_op()
            start = meter.now()
            try:
                for block in blocks:
                    for server in servers:
                        server.serve_block(block)
                for _ in blocks:
                    result = await fetcher.fetch_next(
                        timeout=self.FETCH_TIMEOUT)
                    results.append((result, meter.now() - start))
                error = ""
            except asyncio.TimeoutError:
                error = "TimeoutError"
            factor = meter.end_op(meter.now() - start)
            missing = len(blocks) - len(results)
            for rank, (result, wall) in enumerate(results):
                block = by_root.get(result.root)
                op = Op(ok=False, cls=f"rank{rank}", wall=wall,
                        cal=wall * factor, model=result.cost.total(),
                        roundtrips=result.roundtrips)
                if block is None:
                    op.error = "Stale"  # an earlier batch's late fetch
                elif not result.success:
                    op.error = "Abandoned"
                elif result.failovers:
                    # Nothing is lost and no timer fires on this mesh, so
                    # a failover means an exception killed a connection.
                    op.error = "ConnectionLost"
                else:
                    op.ok = block is not None and \
                        [tx.txid for tx in result.txs] == block.txids
                meter.count("failovers", result.failovers)
                meter.record(op)
            for _ in range(missing):
                meter.record(Op(ok=False, cls="timeout", error=error))
            share = (tap.bytes - wire0) / len(blocks)
            for op in meter.ops[-len(blocks):]:
                op.wire = share
            # Every inv beyond the one that opened a fetch is suppressed.
            meter.count("inv_duplicates",
                        fetcher.invs_seen - invs0 - len(results))
            for block in blocks:
                pool.remove_block(block.txids)
                for server in servers:
                    # Served and confirmed: a re-dial must not announce it.
                    server.blocks.pop(block.header.merkle_root, None)
            done += len(blocks)


# ---------------------------------------------------------------------------
# sim: ~100 scale-free nodes, small blocks at 1 s intervals, 2% loss
# ---------------------------------------------------------------------------

class Sim:
    """run_propagation_scenario networks of 100 scale-free nodes of
    degree 8, a 24-tx block every simulated second, 2% link loss so
    the recovery ladder runs.  The run's blocks are split over four
    networks of different seeds, so the propagation quantiles do not
    rest on one topology.  One op is one block interval; it is correct
    when every node holds that interval's block at the end."""

    name = "sim"
    NODES = 100
    DEGREE = 8
    TXNS = 24
    LOSS = 0.02
    DRAIN = 30.0
    NETWORKS = 4
    RATE = 20.0
    CHUNK = 10

    def build(self, seed: int, meter) -> dict:
        # The scenario builds its own network inside the run; set-up
        # times the same construction (nodes, scale-free links).
        simulator = meter.chunk(Simulator)
        nodes: List = []
        for start in range(0, self.NODES, self.CHUNK):
            nodes.extend(meter.chunk(lambda s=start: [
                Node(f"n{i:04d}", simulator, telemetry_mode="aggregate")
                for i in range(s, s + self.CHUNK)]))
        meter.chunk(connect_scale_free, nodes, self.DEGREE // 2,
                    random.Random(seed), link_model=GeoLinkModel(
                        loss_rate=self.LOSS))
        return {"seed": seed}

    def run(self, state: dict, ops: int, meter) -> None:
        delays: list = []
        for net in range(self.NETWORKS):
            blocks = ops // self.NETWORKS + (net < ops % self.NETWORKS)
            delays.extend(self._network(state["seed"] * self.NETWORKS + net,
                                        blocks, meter))
        delays.sort()
        meter.propagation = tuple(
            delays[min(len(delays) - 1, int(q * len(delays)))]
            if delays else 0.0 for q in (0.5, 0.9))

    def _network(self, seed: int, blocks: int, meter) -> list:
        intervals: list = []
        mark = [meter.now()]

        def on_cycle(stats) -> None:
            wall = meter.now() - mark[0]
            intervals.append((stats, wall, wall * meter.end_op(wall)))
            meter.begin_op()
            mark[0] = meter.now()

        meter.begin_op()
        result, error = None, ""
        try:
            result = run_propagation_scenario(
                nodes=self.NODES, degree=self.DEGREE, blocks=blocks,
                block_txns=self.TXNS, interval=1.0, loss=self.LOSS,
                seed=seed, drain=self.DRAIN, on_cycle=on_cycle)
        except Exception as exc:  # noqa: BLE001 - a counted failure
            error = type(exc).__name__
        # The scenario's closing metrics fold is part of the run's work.
        meter.end_op(meter.now() - mark[0])
        if result is None:
            for _ in range(blocks):
                meter.record(Op(ok=False, cls="block", error=error))
            return []
        registry = result.registry
        meter.count("events", sum(stats.events for stats, _, _ in intervals))
        meter.count("retries", int(registry.sum("relay_retries")))
        meter.count("timeouts", int(registry.sum("relay_timeouts")))
        wire = sum(node.total_bytes_sent() for node in result.nodes) / blocks
        model = registry.sum("relay_bytes") / blocks
        requests = registry.sum("relay_messages", direction="sent") / blocks
        for index, record in enumerate(result.records):
            _, wall, cal = intervals[index]
            covered = all(record.root in node.blocks
                          for node in result.nodes)
            meter.record(Op(
                ok=covered, cls="block", wall=wall, cal=cal, wire=wire,
                model=model, roundtrips=requests, timed=index > 0,
                error="" if covered else "Uncovered"))
        return result.delays


WORKLOADS = {cls.name: cls for cls in (Relay, Sync, Mesh, Sim)}
