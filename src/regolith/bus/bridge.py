"""Bridges carrying envelopes between a planner bus and a simulator bus.

Direction is fixed by topic category: ``target`` flows planner -> simulator,
``telemetry`` and ``skill`` flow simulator -> planner, so no echo-loop
suppression is needed.  The TCP bridge runs in lockstep with the simulator
loop: after one hello frame, each planner period the simulator sends its
pending envelopes plus a sync mark, and waits for the planner's plus an ack.
At the end the simulator sends shutdown, and the planner answers with one
final frame that carries the figures a run reads once.  Each frame is a u32
little-endian length and the UTF-8 JSON of one object (`wire`): an envelope
``{"topic", "seq", "sim_time", "payload"}``, or a control frame whose
``_ctl`` is ``hello``, ``sync``, ``ack``, ``shutdown`` or ``final``.
"""

from __future__ import annotations

import socket
from collections import deque
from typing import Optional

from . import wire
from .core import Bus, Envelope

#: Seconds a lockstep `sync` waits for the planner's ack before failing.
SYNC_TIMEOUT = 30.0

SIM_TO_PLANNER = ("telemetry", "skill")
PLANNER_TO_SIM = ("target",)


class BridgeError(Exception):
    pass


# No run uses this class: a loopback run's planner shares the simulator's
# bus.  The benchmark's tracer (perfbench/layers.py, SPANS "bus.pump")
# resolves LoopbackBridge.pump; when that span goes, so does this class.
class LoopbackBridge:
    """Connects two in-process buses.  Pumping after every publish makes
    the pair of buses behave exactly like one shared bus."""

    def __init__(self, planner_bus: Bus, sim_bus: Bus):
        self.planner_bus = planner_bus
        self.sim_bus = sim_bus
        self._to_planner = [sim_bus.subscribe_category(c) for c in SIM_TO_PLANNER]
        self._to_sim = [planner_bus.subscribe_category(c) for c in PLANNER_TO_SIM]

    def pump(self) -> int:
        """Republish every pending envelope on the other bus; returns the
        number delivered."""
        delivered = 0
        for sub, dest in ([(s, self.planner_bus) for s in self._to_planner]
                          + [(s, self.sim_bus) for s in self._to_sim]):
            batch = sub.poll()
            for env in batch:
                dest.republish(env)
            delivered += len(batch)
        return delivered


def _drain(subs) -> list[Envelope]:
    out = []
    for sub in subs:
        out.extend(sub.poll())
    return out


class _Endpoint:
    def __init__(self, bus: Bus, sock: socket.socket):
        self.bus = bus
        self.sock = sock
        self.decoder = wire.FrameDecoder()
        self._inbox: deque = deque()
        #: Set once a send or receive has failed: the link is dead.
        self.failed = False

    def _lost(self, message: str, detail: str) -> BridgeError:
        """Records the failure on the bus; returns the error to raise."""
        self.failed = True
        self.bus.report_error(message)
        return BridgeError(detail)

    def send(self, objs: list) -> None:
        """Frame each object and send them all in one write."""
        try:
            self.sock.sendall(b"".join([wire.frame(obj) for obj in objs]))
        except OSError as exc:
            raise self._lost(f"bridge connection lost: {exc}", str(exc))

    def recv_until(self, ctl_kinds: tuple) -> dict:
        """Deliver envelope frames until a control frame in ctl_kinds."""
        while True:
            while self._inbox:
                obj = self._inbox.popleft()
                if not isinstance(obj, dict):
                    self.bus.report_error(f"dropped non-dict frame: {obj!r}")
                    continue
                ctl = obj.get("_ctl")
                if ctl is None:
                    try:
                        self.bus.republish(Envelope.from_wire(obj))
                    except Exception as exc:
                        self.bus.report_error(f"dropped bad envelope: {exc}")
                elif ctl in ctl_kinds:
                    return obj
                else:
                    self.bus.report_error(f"unexpected control frame {ctl!r}")
            try:
                data = self.sock.recv(65536)
            except OSError as exc:
                # a TimeoutError cause is a peer that stopped answering
                raise self._lost(f"bridge connection lost: {exc}",
                                 str(exc)) from exc
            if not data:
                self.decoder.close()
                for err in self.decoder.errors:
                    self.bus.report_error(err)
                raise self._lost("bridge connection closed by peer",
                                 "connection closed")
            before = len(self.decoder.errors)
            self._inbox.extend(self.decoder.feed(data))
            for err in self.decoder.errors[before:]:
                self.bus.report_error(err)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class TcpBridgeServer:
    """Simulator-side endpoint; owns the listening socket."""

    def __init__(self, bus: Bus, host: str = "127.0.0.1", port: int = 0):
        self.bus = bus
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(1)
        self.port = self._listener.getsockname()[1]
        self._subs = [bus.subscribe_category(c) for c in SIM_TO_PLANNER]
        self._endpoint: Optional[_Endpoint] = None

    def accept(self, wait: float) -> None:
        """Accepts the planner's connection, waiting up to wait s for it;
        raises TimeoutError when none arrives.  Every later `sync` on the
        connection fails after SYNC_TIMEOUT s without an ack, read when the
        connection is accepted, so a short wait does not shorten the
        lockstep deadline."""
        self._listener.settimeout(wait)
        conn, _ = self._listener.accept()
        conn.settimeout(SYNC_TIMEOUT)   # a hung planner fails sync()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._endpoint = _Endpoint(self.bus, conn)

    def hello(self, payload: dict) -> None:
        """Sends the planner its start-up payload, before the first sync."""
        self._endpoint.send([{"_ctl": "hello", **payload}])

    def sync(self, sim_time: float) -> dict:
        """One lockstep exchange; returns the planner's ack payload."""
        if self._endpoint is None:
            raise BridgeError("no planner connected")
        self._endpoint.send([env.to_wire() for env in _drain(self._subs)]
                            + [{"_ctl": "sync", "sim_time": sim_time}])
        return self._endpoint.recv_until(("ack",))

    def shutdown(self) -> Optional[dict]:
        """Sends shutdown and returns the planner's final frame, or None
        when the link has already failed or the planner closes without
        one.  The wait for the frame is bounded by SYNC_TIMEOUT."""
        final = None
        endpoint = self._endpoint
        if endpoint is not None:
            try:
                if not endpoint.failed:
                    endpoint.send([{"_ctl": "shutdown"}])
                    final = endpoint.recv_until(("final",))
            except BridgeError:
                pass
            endpoint.close()
        self._listener.close()
        return final


class TcpBridgeClient:
    """Planner-side endpoint."""

    def __init__(self, bus: Bus, host: str, port: int, timeout: float = 30.0):
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._endpoint = _Endpoint(bus, sock)
        self._subs = [bus.subscribe_category(c) for c in PLANNER_TO_SIM]

    def wait_hello(self) -> dict:
        """Blocks for the simulator's hello frame and returns it."""
        return self._endpoint.recv_until(("hello",))

    def wait_sync(self) -> Optional[float]:
        """Blocks for the next sync mark; None means shutdown."""
        try:
            ctl = self._endpoint.recv_until(("sync", "shutdown"))
        except BridgeError:
            return None
        if ctl.get("_ctl") == "shutdown":
            return None
        return ctl.get("sim_time", 0.0)

    def ack(self, extra: Optional[dict] = None) -> None:
        msg = {"_ctl": "ack"}
        if extra:
            msg.update(extra)
        self._endpoint.send([env.to_wire() for env in _drain(self._subs)]
                            + [msg])

    def final(self, report: dict) -> None:
        """Answers shutdown with the planner's final report; a simulator
        already gone misses it."""
        try:
            self._endpoint.send([{"_ctl": "final", **report}])
        except BridgeError:
            pass

    def close(self) -> None:
        self._endpoint.close()
