"""In-process topic bus with ROS-like semantics.

Topics are named ``/{machine}/{category}/{action}`` with category one of
target / telemetry / skill.  A subscription receives every topic of one
category in a bounded FIFO queue (overflow drops the oldest envelope and is
counted, so the realtime loop never blocks); `poll` takes every queued
envelope at once.  Timestamps are simulated time.
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


class Subscription:
    def __init__(self, limit: int):
        self._queue: deque[Envelope] = deque()
        self._limit = limit
        self.dropped = 0

    def _push(self, env: Envelope) -> None:
        if len(self._queue) >= self._limit:
            self._queue.popleft()
            self.dropped += 1
        self._queue.append(env)

    def poll(self) -> list[Envelope]:
        """Takes every queued envelope, oldest first."""
        queue = self._queue
        out = []
        while queue:
            out.append(queue.popleft())
        return out

    def __len__(self):
        return len(self._queue)


class _Topic:
    __slots__ = ("category", "seq_by_publisher", "last_sim_time")

    def __init__(self, name: str):
        _, self.category, _ = split_topic(name)
        self.seq_by_publisher: dict[str, int] = {}
        self.last_sim_time = float("-inf")


class Bus:
    """Topic directory plus delivery.  Safe for concurrent threads."""

    def __init__(self, machine_ids: Optional[list[str]] = None,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT):
        self._topics: dict[str, _Topic] = {}
        self._subscribers: dict[str, list[Subscription]] = {
            category: [] for category in CATEGORIES}
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

    @property
    def dropped(self) -> int:
        """Envelopes dropped by full queues, over every subscription."""
        with self._lock:
            return sum(sub.dropped for subs in self._subscribers.values()
                       for sub in subs)

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
            if sim_time < topic.last_sim_time:
                raise ValueError(
                    f"sim_time went backwards on {topic_name}: "
                    f"{sim_time} < {topic.last_sim_time}")
            topic.last_sim_time = sim_time
            seq = topic.seq_by_publisher.get(publisher, 0) + 1
            topic.seq_by_publisher[publisher] = seq
            env = Envelope(topic=topic_name, seq=seq, sim_time=sim_time,
                           payload=payload)
            for sub in self._subscribers[topic.category]:
                sub._push(env)
            return env

    def republish(self, env: Envelope) -> None:
        """Deliver an envelope arriving from a bridge, preserving seq."""
        with self._lock:
            topic = self._get_topic(env.topic)
            topic.last_sim_time = max(topic.last_sim_time, env.sim_time)
            for sub in self._subscribers[topic.category]:
                sub._push(env)

    def subscribe_category(self, category: str,
                           limit: Optional[int] = None) -> Subscription:
        """Subscription to every topic of one category."""
        if category not in CATEGORIES:
            raise TopicError(f"unknown topic category {category!r}")
        with self._lock:
            sub = Subscription(limit or self._queue_limit)
            self._subscribers[category].append(sub)
            return sub

    def set_machine_ids(self, machine_ids: list[str]) -> None:
        """Restricts topics to these machines from now on."""
        with self._lock:
            self._machine_ids = set(machine_ids)

    def report_error(self, message: str) -> None:
        with self._lock:
            self.error_events.append(message)
