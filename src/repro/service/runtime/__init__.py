"""The concurrent service runtime.

:mod:`repro.service.runtime.server` — the one front end of ``repro serve``
(:class:`RuntimeServer`: TCP, stdio and Unix transports, client handling,
the admin plane, graceful shutdown, the view ops) and its in-process
backend (:class:`LocalBackend`: bounded-queue admission control with typed
``overloaded`` shedding, a single drain loop feeding the batcher, the
durable store); :mod:`repro.service.runtime.shard` — the sharded backend
(N worker processes, each the same front end over one local backend,
placed on a consistent-hash ring, with per-shard durable state, recovery,
and the functions that merge their views); :mod:`repro.service.runtime.
metrics` — the live observability layer (thread-safe counters/histograms/
gauges, a process-RSS / available-memory sampler whose ``memory_probe``
re-plans ``max_bytes="auto"`` runs mid-flight, and the AIMD drain-window
controller).
"""

from repro.service.runtime.metrics import (
    AdaptiveDrainPolicy,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RssSampler,
    metric_key,
    parse_metric_key,
)
from repro.service.runtime.server import (
    PROTOCOL,
    IngressQueue,
    LocalBackend,
    RuntimeServer,
    ServerConfig,
    parse_request_line,
)
from repro.service.runtime.shard import (
    HashRing,
    RemoteBackend,
    merge_histogram_snapshots,
    merge_snapshots,
)

__all__ = [
    "AdaptiveDrainPolicy",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RssSampler",
    "metric_key",
    "parse_metric_key",
    "PROTOCOL",
    "IngressQueue",
    "LocalBackend",
    "RuntimeServer",
    "ServerConfig",
    "parse_request_line",
    "HashRing",
    "RemoteBackend",
    "merge_histogram_snapshots",
    "merge_snapshots",
]
