"""A :class:`~repro.serve.Replica` whose sessions live in a worker.

:class:`RemoteReplica` is the parent half of the one replica protocol:
same ``run/health/stats/refresh`` surface as an in-process
:class:`~repro.serve.Replica`, so it drops into an existing
:class:`~repro.serve.ReplicaPool` unchanged — the scheduler cannot
tell (and must not care) whether a lease crosses a socketpair to a
fork (:class:`~repro.serve.ProcessReplica` is a subclass) or TCP to
another host.  Each instance owns one
:class:`~repro.cluster.WorkerClient` connection, and the worker
advertises how many local replicas it hosts; :func:`connect_worker`
opens that many connections and returns one :class:`RemoteReplica` per
slot, so the pool's least-outstanding routing and the scheduler's
per-replica executors keep their meaning (one in-flight round trip per
connection, parallelism = number of slots).

Health accounting is parent-side and typed: ``PeerGone`` / ``OSError``
(worker died) and ``TimeoutError`` (deadline passed; connection
survives via sequence-id discard) count toward ``unhealthy_after``.
Statistics are parent-side round-trip latency — the latency the
serving layer actually delivers.  Trace spans collected worker-side
ship back with the reply and re-parent under the ambient dispatch
span.
"""

from __future__ import annotations

import time

import numpy as np

from ..runtime import SessionStats
from ..serve.pool import Replica
from .transport import WorkerClient
from .wire import format_address, parse_address


class RemoteReplica(Replica):
    """One replica slot on a remote cluster worker.

    Parameters
    ----------
    address:
        ``(host, port)`` or ``"host:port"`` of a running
        :mod:`repro.cluster.worker`.
    name:
        stable identifier; defaults to ``"host:port/r<slot>"``.
    slot:
        which of the worker's local replica slots this connection
        notionally occupies (labelling only — the worker routes every
        request through its own least-outstanding pool).
    timeout_s:
        per-round-trip deadline forwarded to the transport.
    unhealthy_after:
        consecutive failures before routing skips this replica.
    client:
        an already-connected :class:`WorkerClient` to take ownership
        of (used by :func:`connect_worker` to avoid a second hello).
    """

    def __init__(self, address, *, name=None, slot=0, timeout_s=None,
                 unhealthy_after=3, connect_timeout_s=10.0, client=None):
        if isinstance(address, str):
            address = parse_address(address)
        if client is None:
            client = WorkerClient(
                address, timeout_s=timeout_s,
                connect_timeout_s=connect_timeout_s,
            )
        self._client = client
        info = client.info
        if name is None:
            name = f"{format_address(client.address)}/r{int(slot)}"
        # session-less by construction: the sessions live on the worker
        super().__init__(name, None, None, unhealthy_after=unhealthy_after)
        self.slot = int(slot)
        self.timeout_s = timeout_s
        #: the worker's hello self-description (model, profile, tiers,
        #: replica count, shared weight store header, pid)
        self.info = dict(info)
        self.tier_sessions = {str(t): None for t in info.get("tiers", ())}
        self.dispatches_by_tier = {t: 0 for t in self.tier_sessions}
        self.weights_version = int(info.get("weights_version", 1))
        self._stats = SessionStats()

    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        """The worker's ``host:port``."""
        return format_address(self._client.address)

    @property
    def stats(self) -> SessionStats:
        """Parent-side statistics (round-trip serving latency)."""
        return self._stats

    def run(self, samples, tier=None) -> np.ndarray:
        """Round-trip one batch through the remote worker.

        Tier routing is decided here, parent-side, against the ladder
        the worker advertised; the worker executes it on its local
        sessions.  Failures feed the same health accounting as every
        other replica kind.
        """
        from ..trace import current_tracer

        used = tier if tier in self.tier_sessions else None
        samples = np.asarray(samples)
        tracer = current_tracer()
        start = time.perf_counter()
        try:
            out, spans = self._client.request(
                "run",
                {
                    "tier": used,
                    "samples": samples,
                    "want_trace": tracer is not None,
                },
                timeout_s=self.timeout_s,
            )
            if tracer is not None and spans:
                # worker spans attach under the ambient dispatch span
                tracer.ingest(spans)
        except Exception:
            self.consecutive_failures += 1
            if self.consecutive_failures >= self.unhealthy_after:
                self.healthy = False
            raise
        self.consecutive_failures = 0
        self.dispatches += 1
        if used is not None:
            self.degraded_dispatches += 1
            self.dispatches_by_tier[used] += 1
        self._stats.record(samples.shape[0], time.perf_counter() - start)
        return out

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Parent-side health — lock-free and socket-free by contract.

        :meth:`ReplicaPool.health` calls this under the pool lock, so
        it must never block on the wire; use :meth:`remote_health` for
        the worker's own view.
        """
        report = super().health()
        report["remote"] = True
        report["address"] = self.address
        report["slot"] = self.slot
        return report

    def remote_health(self) -> dict:
        """The worker's own health report (one socket round trip)."""
        return self._client.request("health", timeout_s=self.timeout_s)

    def remote_stats(self) -> SessionStats:
        """The worker's merged session statistics (one round trip)."""
        return self._client.request("stats", timeout_s=self.timeout_s)

    def ping(self) -> float:
        """Round-trip liveness probe; returns the RTT in seconds."""
        start = time.perf_counter()
        self._client.request("ping", timeout_s=self.timeout_s)
        return time.perf_counter() - start

    def refresh(self) -> None:
        """Ask the worker to re-freeze its sessions; adopts the new
        shared ``weights_version`` the worker reports back."""
        self.weights_version = int(
            self._client.request("refresh", timeout_s=self.timeout_s)
        )

    def publish(self, state) -> int:
        """Push a new weight generation to the worker hosting this slot.

        Ships the full ``state_dict`` over the wire; the worker writes
        it into its host-local weight set (shared store, or per-replica
        load for a thread-mode worker) and reports the new version
        back.  One publish per *worker* suffices — sibling slots of the
        same worker observe the same host-side swap, so a publisher
        should dedupe by :attr:`address` (see
        :class:`repro.adapt.WeightPublisher`).
        """
        self.weights_version = int(
            self._client.request(
                "publish", {"state": state}, timeout_s=self.timeout_s
            )
        )
        return self.weights_version

    def close(self) -> None:
        """Close this slot's connection (the worker keeps serving)."""
        self._client.close()


def connect_worker(address, *, timeout_s=None, unhealthy_after=3,
                   connect_timeout_s=10.0, slots=None, name_prefix=None):
    """Open one :class:`RemoteReplica` per replica slot of a worker.

    The first connection's hello frame advertises how many local
    replicas the worker hosts; that many connections are opened (cap
    with ``slots=``) so the parent pool gets the worker's full
    parallelism.  Returns a list of connected replicas.
    """
    if isinstance(address, str):
        address = parse_address(address)
    first = WorkerClient(
        address, timeout_s=timeout_s, connect_timeout_s=connect_timeout_s
    )
    advertised = max(1, int(first.info.get("replicas", 1)))
    count = advertised if slots is None else max(1, min(int(slots),
                                                        advertised))
    prefix = name_prefix or format_address(first.address)
    replicas = []
    try:
        for slot in range(count):
            client = first if slot == 0 else WorkerClient(
                address, timeout_s=timeout_s,
                connect_timeout_s=connect_timeout_s,
            )
            replicas.append(
                RemoteReplica(
                    address, name=f"{prefix}/r{slot}", slot=slot,
                    timeout_s=timeout_s, unhealthy_after=unhealthy_after,
                    client=client,
                )
            )
    except Exception:
        for replica in replicas:
            replica.close()
        if not replicas:  # first connection never became a replica
            first.close()
        raise
    return replicas


__all__ = ["RemoteReplica", "connect_worker"]
