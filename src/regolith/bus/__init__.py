from .core import (
    Bus,
    CATEGORIES,
    Envelope,
    PayloadTypeError,
    Subscription,
    TopicError,
    split_topic,
    topic_for,
)
from .bridge import (
    BridgeError,
    LoopbackBridge,
    TcpBridgeClient,
    TcpBridgeServer,
)
from . import wire
