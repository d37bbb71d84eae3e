"""Discrete-event network simulation substrate.

This package stands in for the distributed deployment the paper assumes
(Web Services hosts spread across administrative domains).  It provides a
deterministic, seedable event loop, a message fabric with latency and
bandwidth modelling, byte-accurate message size accounting and failure
injection — everything the communication-performance and dependability
experiments need.
"""

from .clock import SimClock
from .events import EventHandle, EventLoop, TopicEvent
from .failures import FailureEvent, FailureInjector
from .message import Message, TRANSPORT_OVERHEAD_BYTES, payload_size
from .metrics import LatencyStats, MetricsRegistry
from .network import (
    DEFAULT_BANDWIDTH,
    INTER_DOMAIN_LATENCY,
    INTRA_DOMAIN_LATENCY,
    Link,
    Network,
    Node,
)

__all__ = [
    "DEFAULT_BANDWIDTH",
    "EventHandle",
    "EventLoop",
    "FailureEvent",
    "FailureInjector",
    "INTER_DOMAIN_LATENCY",
    "INTRA_DOMAIN_LATENCY",
    "LatencyStats",
    "Link",
    "Message",
    "MetricsRegistry",
    "Network",
    "Node",
    "SimClock",
    "TopicEvent",
    "TRANSPORT_OVERHEAD_BYTES",
    "payload_size",
]
