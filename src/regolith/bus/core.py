"""In-process topic bus with ROS-like semantics.

Topics are named ``/{machine}/{category}/{action}`` with category one of
target / telemetry / skill.  Subscribers get bounded FIFO queues (overflow
drops the oldest envelope and is counted, so the realtime loop never
blocks).  Timestamps are simulated time.
"""

from __future__ import annotations

import re
import threading
from collections import deque
from dataclasses import dataclass
from typing import Optional

CATEGORIES = ("target", "telemetry", "skill")

# Payload kind expected on each topic category.
_CATEGORY_KIND = {"target": "command", "telemetry": "telemetry",
                  "skill": "status"}

_SEGMENT_RE = re.compile(r"^[A-Za-z0-9_\-.]+$")

DEFAULT_QUEUE_LIMIT = 1024


class TopicError(ValueError):
    pass


class PayloadTypeError(TypeError):
    pass


def topic_for(machine: str, category: str, action: str) -> str:
    """Canonical topic name /{machine}/{category}/{action}."""
    for segment in (machine, category, action):
        if not segment or not _SEGMENT_RE.match(segment):
            raise TopicError(f"invalid topic segment {segment!r}")
    if category not in CATEGORIES:
        raise TopicError(f"unknown topic category {category!r}")
    return f"/{machine}/{category}/{action}"


def split_topic(topic: str) -> tuple[str, str, str]:
    parts = topic.split("/")
    if len(parts) != 4 or parts[0] != "":
        raise TopicError(f"malformed topic {topic!r}")
    return parts[1], parts[2], parts[3]


@dataclass
class Envelope:
    topic: str
    seq: int
    sim_time: float
    payload: dict

    def to_wire(self) -> dict:
        return {"topic": self.topic, "seq": self.seq,
                "sim_time": self.sim_time, "payload": self.payload}

    @classmethod
    def from_wire(cls, obj: dict) -> "Envelope":
        return cls(topic=obj["topic"], seq=obj["seq"],
                   sim_time=obj["sim_time"], payload=obj["payload"])


class SkillStatusState:
    IDLE = "Idle"
    RUNNING = "Running"
    SUCCEEDED = "Succeeded"
    FAILED = "Failed"


class Subscription:
    def __init__(self, topic: Optional[str], limit: int):
        self.topic = topic
        self._queue: deque[Envelope] = deque()
        self._limit = limit
        self.dropped = 0

    def _push(self, env: Envelope) -> None:
        if len(self._queue) >= self._limit:
            self._queue.popleft()
            self.dropped += 1
        self._queue.append(env)

    def poll(self, max_envelopes: int = 64) -> list[Envelope]:
        if max_envelopes < 1:
            raise ValueError("max_envelopes must be >= 1")
        out = []
        while self._queue and len(out) < max_envelopes:
            out.append(self._queue.popleft())
        return out

    def __len__(self):
        return len(self._queue)


class _Topic:
    __slots__ = ("name", "category", "payload_kind", "subscribers",
                 "seq_by_publisher", "last_sim_time")

    def __init__(self, name: str):
        self.name = name
        _, self.category, _ = split_topic(name)
        self.payload_kind: Optional[str] = None
        self.subscribers: list[Subscription] = []
        self.seq_by_publisher: dict[str, int] = {}
        self.last_sim_time = float("-inf")


class Bus:
    """Topic directory plus delivery.  Safe for concurrent threads."""

    def __init__(self, machine_ids: Optional[list[str]] = None,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT):
        self._topics: dict[str, _Topic] = {}
        self._wildcards: list[tuple[Optional[str], Subscription]] = []
        self._machine_ids = set(machine_ids) if machine_ids else None
        self._queue_limit = queue_limit
        self._lock = threading.Lock()
        self.error_events: list[str] = []

    # -- helpers -----------------------------------------------------------

    def _get_topic(self, name: str) -> _Topic:
        topic = self._topics.get(name)
        if topic is None:
            machine, category, action = split_topic(name)
            topic_for(machine, category, action)
            if self._machine_ids is not None and machine not in self._machine_ids:
                raise TopicError(
                    f"machine {machine!r} is not a configured machine id")
            topic = _Topic(name)
            self._topics[name] = topic
        return topic

    # -- API ---------------------------------------------------------------

    def publish(self, topic_name: str, payload: dict, sim_time: float,
                publisher: str = "default") -> Envelope:
        with self._lock:
            topic = self._get_topic(topic_name)
            kind = payload.get("kind") if isinstance(payload, dict) else None
            expected = _CATEGORY_KIND[topic.category]
            if kind != expected:
                raise PayloadTypeError(
                    f"topic {topic_name} carries {expected!r} payloads, "
                    f"got kind {kind!r}")
            if topic.payload_kind is None:
                topic.payload_kind = kind
            if sim_time < topic.last_sim_time:
                raise ValueError(
                    f"sim_time went backwards on {topic_name}: "
                    f"{sim_time} < {topic.last_sim_time}")
            topic.last_sim_time = sim_time
            seq = topic.seq_by_publisher.get(publisher, 0) + 1
            topic.seq_by_publisher[publisher] = seq
            env = Envelope(topic=topic_name, seq=seq, sim_time=sim_time,
                           payload=payload)
            for sub in topic.subscribers:
                sub._push(env)
            for category, sub in self._wildcards:
                if category is None or topic.category == category:
                    sub._push(env)
            return env

    def republish(self, env: Envelope) -> None:
        """Deliver an envelope arriving from a bridge, preserving seq."""
        with self._lock:
            topic = self._get_topic(env.topic)
            if topic.payload_kind is None:
                topic.payload_kind = _CATEGORY_KIND[topic.category]
            topic.last_sim_time = max(topic.last_sim_time, env.sim_time)
            for sub in topic.subscribers:
                sub._push(env)
            for category, sub in self._wildcards:
                if category is None or topic.category == category:
                    sub._push(env)

    def subscribe(self, topic_name: str) -> Subscription:
        with self._lock:
            topic = self._get_topic(topic_name)
            sub = Subscription(topic_name, self._queue_limit)
            topic.subscribers.append(sub)
            return sub

    def subscribe_category(self, category: Optional[str],
                           limit: Optional[int] = None) -> Subscription:
        """Wildcard subscription over all topics of one category."""
        if category is not None and category not in CATEGORIES:
            raise TopicError(f"unknown topic category {category!r}")
        with self._lock:
            sub = Subscription(None, limit or self._queue_limit)
            self._wildcards.append((category, sub))
            return sub

    def unsubscribe(self, sub: Subscription) -> None:
        with self._lock:
            if sub.topic is not None:
                topic = self._topics.get(sub.topic)
                if topic and sub in topic.subscribers:
                    topic.subscribers.remove(sub)
            else:
                self._wildcards = [(c, s) for c, s in self._wildcards
                                   if s is not sub]

    def report_error(self, message: str) -> None:
        with self._lock:
            self.error_events.append(message)
