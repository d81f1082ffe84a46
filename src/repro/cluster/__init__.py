"""``repro.cluster`` — multi-host replica sharding over TCP.

The one replica protocol under :mod:`repro.serve`: length-prefixed,
sequence-id-tagged frames over a stream socket.  A forked
:class:`~repro.serve.ProcessReplica` speaks it over a
``socket.socketpair()``; over TCP the same protocol lets one
:class:`~repro.serve.ReplicaPool` span machines.

* :mod:`~repro.cluster.wire` — framing (magic, version, bounded length
  prefix) with typed :class:`WireProtocolError` / :class:`PeerGone`.
* :class:`WorkerClient` — one serialized, deadline-bounded
  request/response channel with stale-reply discard by sequence id.
* :class:`RemoteReplica` / :func:`connect_worker` — drop-in replicas
  whose sessions live on a :class:`ClusterWorker` host.
* :class:`ClusterWorker` / ``python -m repro.cluster.worker`` — N
  local replicas behind one socket acceptor; its connection handler
  also serves each forked process replica.
* :class:`SharedWeightStore` — mmap-backed shared packed weights with
  a versioned header (one weight copy per host).
* :class:`Autoscaler` — p99 + trace-tail driven add/drain of remote
  replicas.

See ``docs/CLUSTER.md`` for the executable tour.
"""

# serve first: serve.pool defines Replica before importing this package
from .. import serve as _serve  # noqa: F401
from .autoscaler import Autoscaler
from .remote import RemoteReplica, connect_worker
from .shmem import STORE_MAGIC, STORE_SCHEMA, SharedWeightStore
from .transport import WorkerClient
from .wire import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    PeerGone,
    WireProtocolError,
    parse_address,
)
from .worker import ClusterWorker

__all__ = [
    "Autoscaler",
    "RemoteReplica",
    "connect_worker",
    "SharedWeightStore",
    "STORE_MAGIC",
    "STORE_SCHEMA",
    "WorkerClient",
    "ClusterWorker",
    "WireProtocolError",
    "PeerGone",
    "WIRE_VERSION",
    "HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "parse_address",
]
