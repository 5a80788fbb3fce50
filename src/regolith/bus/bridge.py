"""Bridges carrying envelopes between a planner bus and a simulator bus.

Direction is fixed by topic category: ``target`` flows planner -> simulator,
``telemetry`` and ``skill`` flow simulator -> planner, so no echo-loop
suppression is needed.  The TCP bridge runs in lockstep with the simulator
loop: after each planner period the simulator sends its pending envelopes
plus a sync mark, and waits for the planner's envelopes plus an ack.
"""

from __future__ import annotations

import socket
from collections import deque
from typing import Optional

from . import wire
from .core import Bus, Envelope

SIM_TO_PLANNER = ("telemetry", "skill")
PLANNER_TO_SIM = ("target",)


class BridgeError(Exception):
    pass


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
            while True:
                batch = sub.poll(256)
                if not batch:
                    break
                for env in batch:
                    dest.republish(env)
                delivered += len(batch)
        return delivered


def _drain(subs) -> list[Envelope]:
    out = []
    for sub in subs:
        while True:
            batch = sub.poll(256)
            if not batch:
                break
            out.extend(batch)
    return out


class _Endpoint:
    def __init__(self, bus: Bus, sock: socket.socket):
        self.bus = bus
        self.sock = sock
        self.decoder = wire.FrameDecoder()
        self._inbox: deque = deque()

    def send(self, objs: list) -> None:
        """Frame each object and send them all in one write."""
        try:
            self.sock.sendall(b"".join([wire.frame(obj) for obj in objs]))
        except OSError as exc:
            self.bus.report_error(f"bridge connection lost: {exc}")
            raise BridgeError(str(exc))

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
                self.bus.report_error(f"bridge connection lost: {exc}")
                raise BridgeError(str(exc))
            if not data:
                self.decoder.close()
                for err in self.decoder.errors:
                    self.bus.report_error(err)
                self.bus.report_error("bridge connection closed by peer")
                raise BridgeError("connection closed")
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

    def accept(self, timeout: float = 30.0) -> None:
        self._listener.settimeout(timeout)
        conn, _ = self._listener.accept()
        conn.settimeout(timeout)        # a hung planner fails sync()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._endpoint = _Endpoint(self.bus, conn)

    def sync(self, sim_time: float) -> dict:
        """One lockstep exchange; returns the planner's ack payload."""
        if self._endpoint is None:
            raise BridgeError("no planner connected")
        self._endpoint.send([env.to_wire() for env in _drain(self._subs)]
                            + [{"_ctl": "sync", "sim_time": sim_time}])
        return self._endpoint.recv_until(("ack",))

    def shutdown(self) -> None:
        if self._endpoint is not None:
            try:
                self._endpoint.send([{"_ctl": "shutdown"}])
            except BridgeError:
                pass
            self._endpoint.close()
        self._listener.close()


class TcpBridgeClient:
    """Planner-side endpoint."""

    def __init__(self, bus: Bus, host: str, port: int, timeout: float = 30.0):
        self.bus = bus
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._endpoint = _Endpoint(bus, sock)
        self._subs = [bus.subscribe_category(c) for c in PLANNER_TO_SIM]

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

    def close(self) -> None:
        self._endpoint.close()
