import enum
import math
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regolith.bus import (
    BridgeError,
    Bus,
    Envelope,
    LoopbackBridge,
    PayloadTypeError,
    TcpBridgeClient,
    TcpBridgeServer,
    TopicError,
    topic_for,
    wire,
)


def cmd(**kw):
    return {"kind": "command", **kw}


def tlm(**kw):
    return {"kind": "telemetry", **kw}


# -- topic names ------------------------------------------------------------

def test_topic_template():
    assert topic_for("excavator1", "target", "drive") == "/excavator1/target/drive"
    assert topic_for("dumptruck1", "telemetry", "work") == "/dumptruck1/telemetry/work"


def test_topic_empty_segment():
    with pytest.raises(TopicError):
        topic_for("", "target", "drive")


def test_topic_bad_characters():
    with pytest.raises(TopicError):
        topic_for("exc/1", "target", "drive")
    with pytest.raises(TopicError):
        topic_for("m1", "weird", "drive")


def test_machine_id_checked_when_configured():
    bus = Bus(machine_ids=["excavator1"])
    bus.publish("/excavator1/target/drive", cmd(), 0.0)
    with pytest.raises(TopicError):
        bus.publish("/ghost/target/drive", cmd(), 0.0)


def test_machine_ids_set_after_construction_are_checked():
    # the planner child makes its bus before the hello names the machines
    bus = Bus()
    bus.set_machine_ids(["excavator1"])
    bus.publish("/excavator1/target/drive", cmd(), 0.0)
    with pytest.raises(TopicError):
        bus.publish("/ghost/target/drive", cmd(), 0.0)


# -- publish / subscribe / poll --------------------------------------------

def test_publish_then_poll():
    bus = Bus()
    sub = bus.subscribe_category("target")
    bus.publish("/m1/target/drive", cmd(x=1), 0.5)
    got = sub.poll()
    assert len(got) == 1
    assert got[0].payload["x"] == 1
    assert got[0].sim_time == 0.5


def test_two_subscribers_both_receive_in_order():
    bus = Bus()
    a = bus.subscribe_category("target")
    b = bus.subscribe_category("target")
    for i in range(5):
        bus.publish("/m1/target/drive", cmd(i=i), float(i))
    for sub in (a, b):
        assert [e.payload["i"] for e in sub.poll()] == list(range(5))


def test_payload_kind_must_match_category():
    bus = Bus()
    with pytest.raises(PayloadTypeError):
        bus.publish("/m1/telemetry/work", cmd(), 0.0)


def test_no_replay_before_subscription():
    bus = Bus()
    bus.publish("/m1/target/drive", cmd(), 0.0)
    sub = bus.subscribe_category("target")
    assert sub.poll() == []


def test_queue_length_after_publishes():
    bus = Bus()
    sub = bus.subscribe_category("target")
    for i in range(7):
        bus.publish("/m1/target/drive", cmd(), 0.0)
    assert len(sub) == 7


def test_bounded_queue_drops_oldest_and_counts():
    bus = Bus(queue_limit=3)
    sub = bus.subscribe_category("target")
    for i in range(5):
        bus.publish("/m1/target/drive", cmd(i=i), 0.0)
    assert sub.dropped == 2
    assert [e.payload["i"] for e in sub.poll()] == [2, 3, 4]


def test_bus_dropped_sums_every_subscription():
    bus = Bus(queue_limit=2)
    sub = bus.subscribe_category("target")
    for i in range(5):
        bus.publish("/m1/target/drive", cmd(i=i), 0.0)
    assert sub.dropped == 3 and bus.dropped == 3
    other = bus.subscribe_category("telemetry")
    for i in range(4):
        bus.publish("/m1/telemetry/state", tlm(i=i), 0.0)
    assert other.dropped == 2 and bus.dropped == 5


def test_interleaved_publishers_keep_per_publisher_seq_order():
    bus = Bus()
    sub = bus.subscribe_category("telemetry")

    def run(publisher):
        for _ in range(50):
            bus.publish("/m1/telemetry/state", tlm(p=publisher), 1.0,
                        publisher=publisher)

    threads = [threading.Thread(target=run, args=(p,)) for p in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    seen = {"a": 0, "b": 0}
    for env in sub.poll():
        p = env.payload["p"]
        assert env.seq == seen[p] + 1  # linearization per publisher
        seen[p] = env.seq
    assert seen == {"a": 50, "b": 50}


def test_sim_time_regression_rejected():
    bus = Bus()
    bus.publish("/m1/target/drive", cmd(), 5.0)
    with pytest.raises(ValueError):
        bus.publish("/m1/target/drive", cmd(), 4.0)


# -- loopback bridge --------------------------------------------------------

def make_pair():
    planner, sim = Bus(), Bus()
    return planner, sim, LoopbackBridge(planner, sim)


def test_loopback_bridge_equivalent_to_local_bus():
    planner, sim, bridge = make_pair()
    sim_sub = sim.subscribe_category("target")
    planner_sub = planner.subscribe_category("telemetry")
    planner.publish("/m1/target/drive", cmd(w=1), 0.0)
    sim.publish("/m1/telemetry/state", tlm(z=2), 0.0)
    assert bridge.pump() == 2
    assert sim_sub.poll()[0].payload["w"] == 1
    assert planner_sub.poll()[0].payload["z"] == 2


def test_loopback_bridge_preserves_order():
    planner, sim, bridge = make_pair()
    planner_sub = planner.subscribe_category("telemetry")
    for i in range(4):
        sim.publish("/m1/telemetry/state", tlm(i=i), float(i) * 0.01)
    assert bridge.pump() == 4
    assert [e.payload["i"] for e in planner_sub.poll()] == [0, 1, 2, 3]


# -- wire encoding ----------------------------------------------------------

SCALARS = st.one_of(st.none(), st.booleans(),
                    st.integers(min_value=-2**62, max_value=2**62),
                    st.floats(allow_nan=False), st.text(max_size=30))
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(st.text(max_size=8), inner, max_size=4)), max_leaves=15)


class Mode(enum.IntEnum):
    LOW = -3
    HIGH = 2**40


class Name(str):
    pass


EXOTIC = st.one_of(st.sampled_from(list(Mode)),
                   st.floats().map(np.float64),     # NaN and inf too
                   st.text(max_size=10).map(Name),
                   st.integers(min_value=-2**80, max_value=2**80))
KEYS = st.one_of(st.text(max_size=8), st.text(max_size=8).map(Name))
MIXED = st.recursive(st.one_of(SCALARS, EXOTIC), lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(KEYS, inner, max_size=4)), max_leaves=15)


def assert_same(decoded, value):
    """decoded is value as the wire carries it: floats bit for bit (NaN as
    any NaN), int and str subclasses as plain int and str, tuples as
    lists."""
    if isinstance(value, float):
        assert type(decoded) is float
        if math.isnan(value):
            assert math.isnan(decoded)
        else:
            assert struct.pack("<d", decoded) == struct.pack("<d", value)
    elif value is None or isinstance(value, bool):
        assert decoded is value
    elif isinstance(value, int):
        assert type(decoded) is int and decoded == value
    elif isinstance(value, str):
        assert type(decoded) is str and decoded == value
    elif isinstance(value, (list, tuple)):
        assert type(decoded) is list and len(decoded) == len(value)
        for got, want in zip(decoded, value):
            assert_same(got, want)
    else:
        assert type(decoded) is dict and list(decoded) == list(value)
        assert all(type(key) is str for key in decoded)
        for key, want in value.items():
            assert_same(decoded[key], want)


@settings(max_examples=200, deadline=None)
@given(st.one_of(VALUES, MIXED))
@example(-0.0)
@example([math.inf, -math.inf, math.nan, np.float64(-0.0)])
@example({"big": [2**63, -2**63 - 1, 2**64], "mode": Mode.HIGH})
def test_wire_round_trip(value):
    dec = wire.FrameDecoder()
    decoded, = dec.feed(wire.frame(value))
    assert_same(decoded, value)
    assert dec.errors == []


def test_wire_float_bit_exact():
    value = 0.1 + 0.2
    assert wire.FrameDecoder().feed(wire.frame(value)) == [value]


@pytest.mark.parametrize("value", [b"k", {1, 2}, {"ok": [bytearray(b"k")]},
                                   {"ok": {b"k": 1}}],
                         ids=["bytes", "set", "nested-bytearray",
                              "bytes-key"])
def test_wire_frame_rejects_what_json_cannot_encode(value):
    with pytest.raises(wire.WireError, match="unencodable"):
        wire.frame(value)


@pytest.mark.parametrize("payload", [b'"\xff"', b'{"a":', b"1" * 5000,
                                     b"[1] 2"],
                         ids=["bad-utf8", "truncated", "int-too-long",
                              "trailing"])
def test_wire_decode_raises_wire_error_on_a_bad_payload(payload):
    with pytest.raises(wire.WireError):
        wire.decode(payload)


def test_frame_decoder_drops_malformed_and_recovers():
    good = wire.frame({"ok": 1})
    bad_payload = b"\x05\x00\x00\x00ZZZZZ"  # declared 5 bytes of garbage
    dec = wire.FrameDecoder()
    out = dec.feed(good + bad_payload + good)
    assert out == [{"ok": 1}, {"ok": 1}]
    assert len(dec.errors) == 1


def test_frame_decoder_reports_truncated_stream():
    dec = wire.FrameDecoder()
    dec.feed(wire.frame({"a": 1})[:3])
    dec.close()
    assert dec.errors


#: A 10 KB payload of 5000 nested empty arrays: deeper than the
#: interpreter's recursion limit.
DEEP_PAYLOAD = b"[" * 5000 + b"]" * 5000


def test_decode_rejects_a_frame_nested_too_deeply():
    with pytest.raises(wire.WireError, match="nested too deeply"):
        wire.decode(DEEP_PAYLOAD)
    shallow = b"[" * 50 + b"null" + b"]" * 50
    value = wire.decode(shallow)
    for _ in range(50):
        value, = value
    assert value is None


def test_frame_decoder_drops_a_deeply_nested_frame_and_recovers():
    dec = wire.FrameDecoder()
    deep = struct.pack("<I", len(DEEP_PAYLOAD)) + DEEP_PAYLOAD
    assert dec.feed(deep + wire.frame({"ok": 1})) == [{"ok": 1}]
    assert len(dec.errors) == 1 and "nested too deeply" in dec.errors[0]


def test_bridge_reports_a_deeply_nested_frame_as_a_bus_error():
    server = TcpBridgeServer(Bus())
    peer = socket.create_connection(("127.0.0.1", server.port))
    try:
        server.accept(wait=5.0)
        deep = struct.pack("<I", len(DEEP_PAYLOAD)) + DEEP_PAYLOAD
        peer.sendall(deep + wire.frame({"_ctl": "ack", "tick": 3}))
        ack = server.sync(0.0)
    finally:
        peer.close()
        server.shutdown()
    assert ack["tick"] == 3
    assert any("nested too deeply" in e for e in server.bus.error_events)


@st.composite
def damaged_frames(draw):
    """A valid frame whose payload has a few bytes cut, overwritten or
    inserted, with its length prefix rewritten to match."""
    raw = bytearray(wire.frame(draw(MIXED))[4:])
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(raw)))
        byte = draw(st.sampled_from(b'[]{}",:0-.eINn \x00\xff\xc3'))
        edit = draw(st.sampled_from(("cut", "set", "insert")))
        if edit == "cut":
            del raw[at:]
        elif edit == "set" and at < len(raw):
            raw[at] = byte
        else:
            raw.insert(at, byte)
    return struct.pack("<I", len(raw)) + bytes(raw)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.binary(max_size=200), damaged_frames()))
def test_frame_decoder_total_on_fuzz(data):
    dec = wire.FrameDecoder()
    dec.feed(data)
    dec.close()


def test_wire_rejects_oversized_frames(monkeypatch):
    monkeypatch.setattr(wire, "MAX_FRAME", 64)
    assert len(wire.frame("x" * 62)) == 4 + 64      # two quotes, 62 bytes
    with pytest.raises(wire.WireError, match="frame too large"):
        wire.frame("x" * 63)
    dec = wire.FrameDecoder()
    assert dec.feed(struct.pack("<I", 65) + b'"') == []
    assert dec.errors and "oversized frame" in dec.errors[0]
    assert dec.feed(wire.frame(7)) == [7]           # the stream recovers


# -- tcp bridge -------------------------------------------------------------

def test_tcp_bridge_lockstep_exchange():
    sim_bus = Bus()
    planner_bus = Bus()
    server = TcpBridgeServer(sim_bus)

    result = {}

    def planner_side():
        client = TcpBridgeClient(planner_bus, "127.0.0.1", server.port)
        sub = planner_bus.subscribe_category("telemetry")
        while True:
            t = client.wait_sync()
            if t is None:
                break
            for env in sub.poll():
                result.setdefault("seen", []).append(env.payload["step"])
            planner_bus.publish("/m1/target/drive", cmd(at=t), t)
            client.ack()
        client.close()

    thread = threading.Thread(target=planner_side)
    thread.start()
    server.accept(wait=5.0)
    cmd_sub = sim_bus.subscribe_category("target")
    for step in range(3):
        sim_bus.publish("/m1/telemetry/state", tlm(step=step), float(step))
        server.sync(float(step))
    server.shutdown()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert result["seen"] == [0, 1, 2]
    assert [e.payload["at"] for e in cmd_sub.poll()] == [0.0, 1.0, 2.0]


def test_tcp_bridge_sync_times_out_on_silent_planner(monkeypatch):
    monkeypatch.setattr("regolith.bus.bridge.SYNC_TIMEOUT", 0.5)
    server = TcpBridgeServer(Bus())
    peer = socket.create_connection(("127.0.0.1", server.port))
    server.accept(wait=0.5)
    raised = []

    def simulator_side():
        try:
            server.sync(0.0)
        except BridgeError as exc:
            raised.append(exc)

    # daemon: without a deadline the sync blocks forever
    thread = threading.Thread(target=simulator_side, daemon=True)
    thread.start()
    thread.join(timeout=5)
    finished = not thread.is_alive()
    peer.close()
    server.shutdown()
    assert finished
    assert raised


def test_tcp_bridge_short_accept_wait_keeps_the_sync_deadline():
    """Waiting briefly for the connection must not make every later sync
    fail after that brief wait: an ack slower than the wait still syncs."""
    server = TcpBridgeServer(Bus())
    acked = []

    def planner_side():
        client = TcpBridgeClient(Bus(), "127.0.0.1", server.port)
        if client.wait_sync() is not None:
            time.sleep(0.5)                 # slower than the accept wait
            client.ack({"tick": 1})
            acked.append(True)
        client.wait_sync()                  # until shutdown
        client.close()

    thread = threading.Thread(target=planner_side, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10.0
    while True:
        try:
            server.accept(wait=0.1)
            break
        except TimeoutError:
            assert time.monotonic() < deadline, "planner never connected"
    try:
        ack = server.sync(0.0)
    finally:
        server.shutdown()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert acked and ack["tick"] == 1


def _shutdown_after_one_sync(planner_end):
    """(shutdown's return, its seconds, the simulator bus's errors)
    against a planner that acks one sync, then ends as planner_end(client)
    says once shutdown arrives."""
    server = TcpBridgeServer(Bus())

    def planner_side():
        client = TcpBridgeClient(Bus(), "127.0.0.1", server.port)
        while client.wait_sync() is not None:
            client.ack({"tick": 1})
        planner_end(client)
        client.close()

    thread = threading.Thread(target=planner_side, daemon=True)
    thread.start()
    server.accept(wait=5.0)
    server.sync(0.0)
    start = time.monotonic()
    final = server.shutdown()
    seconds = time.monotonic() - start
    thread.join(timeout=5)
    assert not thread.is_alive()
    return final, seconds, server.bus.error_events


def test_tcp_bridge_shutdown_returns_the_planners_final_frame():
    final, _, errors = _shutdown_after_one_sync(
        lambda client: client.final({"mean_tick_seconds": "1.0e-05"}))
    assert final == {"_ctl": "final", "mean_tick_seconds": "1.0e-05"}
    assert errors == []


def test_tcp_bridge_shutdown_without_a_final_frame_returns_none():
    final, seconds, errors = _shutdown_after_one_sync(lambda client: None)
    assert final is None
    assert seconds < 1.0
    assert errors == ["bridge connection closed by peer"]
