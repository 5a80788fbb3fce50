import socket
import threading

import pytest
from hypothesis import given, settings
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


# -- publish / subscribe / poll --------------------------------------------

def test_publish_then_poll():
    bus = Bus()
    sub = bus.subscribe("/m1/target/drive")
    bus.publish("/m1/target/drive", cmd(x=1), 0.5)
    got = sub.poll(10)
    assert len(got) == 1
    assert got[0].payload["x"] == 1
    assert got[0].sim_time == 0.5


def test_two_subscribers_both_receive_in_order():
    bus = Bus()
    a = bus.subscribe("/m1/target/drive")
    b = bus.subscribe("/m1/target/drive")
    for i in range(5):
        bus.publish("/m1/target/drive", cmd(i=i), float(i))
    for sub in (a, b):
        assert [e.payload["i"] for e in sub.poll(10)] == list(range(5))


def test_payload_kind_must_match_category():
    bus = Bus()
    with pytest.raises(PayloadTypeError):
        bus.publish("/m1/telemetry/work", cmd(), 0.0)


def test_no_replay_before_subscription():
    bus = Bus()
    bus.publish("/m1/target/drive", cmd(), 0.0)
    sub = bus.subscribe("/m1/target/drive")
    assert sub.poll(10) == []


def test_queue_length_after_publishes():
    bus = Bus()
    sub = bus.subscribe("/m1/target/drive")
    for i in range(7):
        bus.publish("/m1/target/drive", cmd(), 0.0)
    assert len(sub) == 7


def test_unsubscribe_leaves_publisher_unaffected():
    bus = Bus()
    sub = bus.subscribe("/m1/target/drive")
    bus.unsubscribe(sub)
    bus.publish("/m1/target/drive", cmd(), 0.0)  # must not raise


def test_poll_batches():
    bus = Bus()
    sub = bus.subscribe("/m1/target/drive")
    for name in "abc":
        bus.publish("/m1/target/drive", cmd(name=name), 0.0)
    assert [e.payload["name"] for e in sub.poll(2)] == ["a", "b"]
    assert [e.payload["name"] for e in sub.poll(2)] == ["c"]
    assert sub.poll(2) == []


def test_bounded_queue_drops_oldest_and_counts():
    bus = Bus(queue_limit=3)
    sub = bus.subscribe("/m1/target/drive")
    for i in range(5):
        bus.publish("/m1/target/drive", cmd(i=i), 0.0)
    assert sub.dropped == 2
    assert [e.payload["i"] for e in sub.poll(10)] == [2, 3, 4]


def test_interleaved_publishers_keep_per_publisher_seq_order():
    bus = Bus()
    sub = bus.subscribe("/m1/telemetry/state")

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
    for env in sub.poll(1000):
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
    sim_sub = sim.subscribe("/m1/target/drive")
    planner_sub = planner.subscribe("/m1/telemetry/state")
    planner.publish("/m1/target/drive", cmd(w=1), 0.0)
    sim.publish("/m1/telemetry/state", tlm(z=2), 0.0)
    assert bridge.pump() == 2
    assert sim_sub.poll(5)[0].payload["w"] == 1
    assert planner_sub.poll(5)[0].payload["z"] == 2


def test_loopback_bridge_preserves_order():
    planner, sim, bridge = make_pair()
    planner_sub = planner.subscribe("/m1/telemetry/state")
    for i in range(4):
        sim.publish("/m1/telemetry/state", tlm(i=i), float(i) * 0.01)
    assert bridge.pump() == 4
    assert [e.payload["i"] for e in planner_sub.poll(10)] == [0, 1, 2, 3]


# -- wire encoding ----------------------------------------------------------

SCALARS = st.one_of(st.none(), st.booleans(),
                    st.integers(min_value=-2**62, max_value=2**62),
                    st.floats(allow_nan=False), st.text(max_size=30),
                    st.binary(max_size=30))
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(st.text(max_size=8), inner, max_size=4)), max_leaves=15)


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_wire_round_trip(value):
    decoded = wire.decode(wire.encode(value))
    if isinstance(value, tuple):
        value = list(value)
    assert decoded == value


def test_wire_float_bit_exact():
    value = 0.1 + 0.2
    assert wire.decode(wire.encode(value)) == value


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


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=200))
def test_frame_decoder_total_on_fuzz(data):
    dec = wire.FrameDecoder()
    dec.feed(data)
    dec.close()


# -- tcp bridge -------------------------------------------------------------

def test_tcp_bridge_lockstep_exchange():
    sim_bus = Bus()
    planner_bus = Bus()
    server = TcpBridgeServer(sim_bus)

    result = {}

    def planner_side():
        client = TcpBridgeClient(planner_bus, "127.0.0.1", server.port)
        sub = planner_bus.subscribe("/m1/telemetry/state")
        while True:
            t = client.wait_sync()
            if t is None:
                break
            for env in sub.poll(50):
                result.setdefault("seen", []).append(env.payload["step"])
            planner_bus.publish("/m1/target/drive", cmd(at=t), t)
            client.ack()
        client.close()

    thread = threading.Thread(target=planner_side)
    thread.start()
    server.accept()
    cmd_sub = sim_bus.subscribe("/m1/target/drive")
    for step in range(3):
        sim_bus.publish("/m1/telemetry/state", tlm(step=step), float(step))
        server.sync(float(step))
    server.shutdown()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert result["seen"] == [0, 1, 2]
    assert [e.payload["at"] for e in cmd_sub.poll(10)] == [0.0, 1.0, 2.0]


def test_tcp_bridge_sync_times_out_on_silent_planner():
    server = TcpBridgeServer(Bus())
    peer = socket.create_connection(("127.0.0.1", server.port))
    server.accept(timeout=0.5)
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
