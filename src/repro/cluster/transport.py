"""The client half of the replica protocol: :class:`WorkerClient`.

One :class:`WorkerClient` owns one stream connection to one worker —
TCP to a :mod:`repro.cluster.worker` process, or one end of a
``socket.socketpair()`` to the fork behind a
:class:`~repro.serve.ProcessReplica` — and serializes **request/response
round trips** over it: a lock guards the whole send→recv exchange,
every request carries a monotonically increasing sequence id, and every
reply echoes the id of the request it answers.  The echo is what keeps
the connection usable after a timeout — when a deadline expires
mid-round-trip the worker's late reply stays buffered in the socket,
and the *next* request discards it by sequence id instead of mistaking
it for its own answer and handing the previous batch's outputs to the
wrong callers.

Message shapes (all pickled frames, see :mod:`repro.cluster.wire`):

* request:  ``(op, seq, payload)`` where ``op`` is one of ``"run"``,
  ``"health"``, ``"stats"``, ``"refresh"``, ``"publish"``, ``"ping"``;
* reply: ``(seq, "ok", payload)`` or ``(seq, "err", exception)``;
* on connect the worker speaks first with a ``("hello", info)`` frame
  describing itself (model, profile, tiers, replica count, shared
  weight store, wire version) so the client can fail fast on a
  mismatched peer.

Typed failures: :class:`~repro.cluster.wire.PeerGone` /
``OSError`` mean the worker died (the owning
:class:`~repro.cluster.RemoteReplica` counts it against health);
``TimeoutError`` means this round trip ran out of budget but the
connection survives; :class:`~repro.cluster.wire.WireProtocolError`
means the peer is not speaking our protocol and the connection is
abandoned.
"""

from __future__ import annotations

import socket
import threading
import time

from .wire import (
    WIRE_VERSION,
    PeerGone,
    WireProtocolError,
    encode_frame,
    format_address,
    recv_frame,
)


class WorkerClient:
    """One serialized request/response channel to a cluster worker.

    Parameters
    ----------
    address:
        ``(host, port)`` of a listening :mod:`repro.cluster.worker`, or
        an already-connected stream socket to adopt (the parent end of
        a ``socket.socketpair()`` whose other end a forked worker
        serves).
    timeout_s:
        default per-round-trip deadline (``None`` waits forever);
        individual :meth:`request` calls may override it.
    connect_timeout_s:
        budget for the TCP connect plus the worker's hello frame.
    """

    def __init__(self, address, *, timeout_s=None, connect_timeout_s=10.0):
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self._seq = 0          # protected by _lock
        self._closed = False   # protected by _lock
        if isinstance(address, socket.socket):
            self.address = ("socketpair", address.fileno())
            self._sock = address
            self._sock.settimeout(connect_timeout_s)
        else:
            self.address = (str(address[0]), int(address[1]))
            self._sock = socket.create_connection(
                self.address, timeout=connect_timeout_s
            )
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            kind, info = recv_frame(self._sock)
        except (PeerGone, WireProtocolError, OSError):
            self._sock.close()
            raise
        if kind != "hello" or not isinstance(info, dict):
            self._sock.close()
            raise WireProtocolError(
                f"peer at {format_address(self.address)} did not say "
                f"hello (got {kind!r})"
            )
        if info.get("wire_version") != WIRE_VERSION:
            self._sock.close()
            raise WireProtocolError(
                f"worker speaks wire version {info.get('wire_version')}, "
                f"this client speaks {WIRE_VERSION}"
            )
        #: the worker's self-description from its hello frame
        self.info = info

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether the channel has been closed (locally or by error)."""
        with self._lock:
            return self._closed

    def _recv_reply_locked(self, seq, deadline):
        """Receive frames until one echoes *seq*; discard stale replies.

        Contract: the caller holds ``_lock``.  A reply whose sequence
        id is not *seq* answers a request that already timed out — it
        is dropped here, never returned as the current answer.
        """
        while True:
            # This suppression and its twin on sendall in request() are
            # one deliberate design: _lock exists precisely to serialize
            # the whole send->recv round trip — the seq-echo protocol
            # assumes one in-flight request per connection — and every
            # read re-arms the socket timeout from the deadline.
            reply = recv_frame(self._sock, deadline=deadline)  # repro-lint: ignore[CON003] lock serializes the round trip; deadline-bounded
            if not isinstance(reply, tuple) or len(reply) != 3:
                raise WireProtocolError(
                    f"malformed reply {type(reply).__name__} "
                    f"(expected (seq, kind, payload))"
                )
            reply_seq, kind, payload = reply
            if reply_seq == seq:
                return kind, payload
            # stale reply to an earlier timed-out request: discard

    def request(self, op, payload=None, *, timeout_s=None):
        """One serialized round trip; returns the reply payload.

        A worker-side exception travels back typed and is re-raised
        here.  ``timeout_s`` overrides the client default for this
        call only.
        """
        if timeout_s is None:
            timeout_s = self.timeout_s
        with self._lock:
            if self._closed:
                raise PeerGone(
                    f"connection to {format_address(self.address)} is "
                    f"closed"
                )
            self._seq += 1
            seq = self._seq
            deadline = (
                None if timeout_s is None
                else time.perf_counter() + float(timeout_s)
            )
            frame = encode_frame((op, seq, payload))
            try:
                if deadline is not None:
                    self._sock.settimeout(
                        max(1e-3, deadline - time.perf_counter())
                    )
                else:
                    self._sock.settimeout(None)
                # same deliberate round-trip design as _recv_reply_locked
                self._sock.sendall(frame)  # repro-lint: ignore[CON003] lock serializes the round trip; deadline-bounded via settimeout
                kind, result = self._recv_reply_locked(seq, deadline)
            except (PeerGone, WireProtocolError, OSError) as exc:
                # a dead or desynced channel is poisoned so later
                # callers fail fast; a plain timeout is survivable (the
                # seq protocol discards the late reply), and
                # socket.timeout IS TimeoutError on 3.10+ but only an
                # OSError on 3.9 — hence the isinstance split
                if not isinstance(exc, (TimeoutError, socket.timeout)):
                    self._closed = True
                    try:
                        self._sock.close()
                    except OSError:
                        pass
                raise
        if kind == "err":
            raise result
        return result

    def close(self) -> None:
        """Close the channel; idempotent.

        The socket is shut down before it is closed, so the worker sees
        EOF even while a forked sibling still holds a duplicate of this
        end.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer is already gone
            self._sock.close()

    def __repr__(self):
        return (
            f"WorkerClient({format_address(self.address)}, "
            f"closed={self.closed})"
        )


__all__ = ["WorkerClient"]
