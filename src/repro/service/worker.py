"""Worker agent: pulls shard leases over HTTP and executes them.

The execution path is deliberately the *same code* the serial campaign
runner uses — :func:`repro.experiments.runner._run_one_pair` over
:func:`repro.experiments.runner.run_pair` with the same retry/timeout
policy and incident recorder — which is what makes a service
campaign's :class:`~repro.experiments.runner.CampaignResult`
counter-for-counter identical to a serial one.

Lease discipline:

* a heartbeat thread renews the lease every ``renew_every_s`` while the
  shard simulates;
* a renewal answered 410 (lease gone: expired, or the manager restarted
  and forgot all leases) does NOT abort the computation — the worker
  finishes and still delivers, because completion is key-addressed and
  the result store dedupes; abandoning finished work would only waste it;
* a manager that is briefly unreachable (restarting) is retried with
  backoff by :class:`ManagerClient` rather than treated as fatal.

:class:`WorkerChaos` is the built-in fault injector for the
service-smoke CI job: it SIGKILLs or wedges the worker after the Nth
lease grant, exercising the expiry → requeue → reassign path end to end.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request
import uuid
from dataclasses import dataclass

from repro.errors import ServiceError
from repro.experiments.runner import RetryPolicy, _run_one_pair, run_pair
from repro.experiments.scale import PAPER, SMOKE
from repro.resilience.incidents import IncidentRecorder
from repro.trace.store import TraceStore
from repro.uarch.machine import CheckpointStore

_SCALES = {"smoke": SMOKE, "paper": PAPER}


def http_exchange(url: str, method: str, data, timeout_s: float) -> tuple[int, bytes]:
    """One raw HTTP exchange (the default transport).

    HTTP error statuses are returned, not raised; connection-level
    failures propagate as ``URLError``/``OSError`` for the client's
    retry loop.  Pluggable: tests swap in a scripted transport with the
    same signature.
    """
    request = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


class ManagerClient:
    """Tiny JSON-over-HTTP client for the manager (stdlib urllib).

    HTTP error statuses are *answers*, not failures — they are returned
    as ``(status, payload)`` like any other response, with two
    exceptions treated as transport-level and retried in place:

    * **HTTP 502** — a mid-path proxy failure; deliberately *not* 503,
      which the manager answers during genuine graceful shutdown and must
      keep reaching the caller so workers drain instead of hammering a
      dying manager;
    * an **undecodable 200 body** — a truncated response; the request is
      re-sent (every service endpoint is idempotent, so a duplicate
      delivery is harmless and better than acting on half an answer).

    Connection-level failures (a manager restarting) are retried too.
    Retry sleeps use :class:`~repro.experiments.runner.RetryPolicy` —
    capped exponential backoff with sha256-keyed jitter (keyed by the
    request URL, so a fleet of workers does not hammer a recovering
    manager in lockstep).  ``retry_delay_s`` is the backoff base.
    """

    def __init__(
        self,
        base_url: str,
        retries: int = 40,
        retry_delay_s: float = 0.25,
        timeout_s: float = 10.0,
        sleep_fn=time.sleep,
        transport=None,
        backoff: RetryPolicy | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.retries = retries
        self.retry_delay_s = retry_delay_s
        self.timeout_s = timeout_s
        self.sleep_fn = sleep_fn
        self.transport = transport if transport is not None else http_exchange
        self.backoff = backoff or RetryPolicy(
            timeout_s=None,
            max_retries=retries,
            backoff_base_s=retry_delay_s,
            backoff_factor=1.5,
            backoff_max_s=max(4.0 * retry_delay_s, 1.0),
            jitter=0.5,
        )

    def get(self, path: str) -> tuple[int, dict]:
        status, raw = self._request("GET", path, None, json_body=True)
        return status, _decode(raw)[0]

    def get_text(self, path: str) -> tuple[int, str]:
        """GET a non-JSON resource (``/incidents`` NDJSON, ``/metrics``)."""
        status, raw = self._request("GET", path, None, json_body=False)
        return status, raw.decode()

    def post(self, path: str, body: dict | None = None) -> tuple[int, dict]:
        data = json.dumps(body if body is not None else {}).encode()
        status, raw = self._request("POST", path, data, json_body=True)
        return status, _decode(raw)[0]

    def _request(
        self, method: str, path: str, data: bytes | None, json_body: bool
    ) -> tuple[int, bytes]:
        url = self.base_url + path
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                status, raw = self.transport(url, method, data, self.timeout_s)
            except (urllib.error.URLError, ConnectionError, TimeoutError, OSError) as exc:
                last_error = exc
            else:
                if status == 502:
                    last_error = ServiceError(f"HTTP 502 from {url}")
                elif json_body and status == 200 and not _decode(raw)[1]:
                    last_error = ServiceError(f"undecodable response body from {url}")
                else:
                    return status, raw
            if attempt < self.retries:
                self.sleep_fn(self.backoff.backoff(attempt + 1, key=url))
        raise ServiceError(
            f"manager at {self.base_url} unreachable after "
            f"{self.retries + 1} attempt(s): {last_error}"
        )


def _decode(raw: bytes) -> tuple[dict, bool]:
    """``(payload, intact)`` — ``intact`` is False for a non-empty body
    that does not parse to a JSON object (truncated in flight)."""
    if not raw:
        return {}, True
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError:
        return {}, False
    if not isinstance(payload, dict):
        return {}, False
    return payload, True


class _ProgressTracker:
    """Thread-safe shard progress shared between the execute path (which
    adds retired-event counts via :func:`repro.experiments.runner.
    run_workload`'s gated ``progress`` hook) and the heartbeat thread
    (which snapshots it into each renew body)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.events_done = 0
        self.workload = ""

    def begin(self, workload: str) -> None:
        with self._lock:
            self.events_done = 0
            self.workload = workload

    def add(self, n: int) -> None:
        with self._lock:
            self.events_done += int(n)

    def snapshot(self) -> dict:
        with self._lock:
            return {"events_done": self.events_done, "workload": self.workload}


@dataclass
class WorkerChaos:
    """Fault injection for CI: die or wedge after the Nth lease.

    ``kill_after_leases=N`` SIGKILLs the worker process the moment it is
    granted its Nth lease — before any result is delivered — so the
    manager sees a silent death and must recover via lease expiry.
    ``hang_after_leases=N`` wedges the worker instead (lease held, no
    renewal, no progress): the expiry path again, but with a live corpse.
    """

    kill_after_leases: int = 0
    hang_after_leases: int = 0
    leases_granted: int = 0

    def on_lease(self) -> None:
        self.leases_granted += 1
        if self.kill_after_leases and self.leases_granted >= self.kill_after_leases:
            os.kill(os.getpid(), signal.SIGKILL)
        if self.hang_after_leases and self.leases_granted >= self.hang_after_leases:
            while True:  # pragma: no cover - only ever exited by SIGKILL
                time.sleep(3600)


class WorkerAgent:
    """Register → lease → heartbeat → execute → deliver, until stopped.

    Args:
        client: transport to the manager.
        name: optional human-readable worker name.
        poll_interval_s: idle sleep between lease attempts.
        max_idle_s: exit after this long with no work AND no queued work
            anywhere (None: run until stopped — the service default).
        machine_cache_dir: warm-machine checkpoint cache shared with the
            serial runner (optional but a large speedup across shards).
        trace_cache_dir: content-addressed trace store shared with the
            campaign runner; shards load serialised trace batches instead
            of regenerating them.
        chaos: fault injector (CI only).
        stop_event: external stop signal; the agent finishes the shard in
            hand, delivers it, then exits (graceful drain).
    """

    def __init__(
        self,
        client: ManagerClient,
        name: str = "",
        poll_interval_s: float = 0.25,
        max_idle_s: float | None = None,
        machine_cache_dir: str | None = None,
        trace_cache_dir: str | None = None,
        chaos: WorkerChaos | None = None,
        stop_event: threading.Event | None = None,
    ) -> None:
        self.client = client
        self.name = name
        self.poll_interval_s = poll_interval_s
        self.max_idle_s = max_idle_s
        self.machine_cache_dir = machine_cache_dir
        self.trace_cache_dir = trace_cache_dir
        self.chaos = chaos
        self.stop_event = stop_event if stop_event is not None else threading.Event()
        #: Chosen here rather than by the manager, so a register the
        #: client re-sends (a 502, a truncated answer) re-registers this
        #: worker instead of minting a second, ghost entry.
        self.worker_id = f"{name or 'worker'}-{uuid.uuid4().hex[:8]}"
        self.renew_every_s = 1.0
        self.progress = _ProgressTracker()
        self.shards_done = 0
        self.shards_failed = 0
        self.leases_lost = 0
        self.manager_lost = False

    def stop(self) -> None:
        self.stop_event.set()

    def _register(self) -> None:
        for _ in range(4):
            status, registration = self.client.post(
                "/workers/register", {"name": self.name, "worker_id": self.worker_id}
            )
            if status == 200:
                self.worker_id = registration["worker_id"]
                self.renew_every_s = float(registration.get("renew_every_s", 1.0))
                return
            if self.stop_event.wait(self.poll_interval_s):
                raise ServiceError("worker stopped while registering")
        raise ServiceError(f"could not register against {self.client.base_url}")

    def run(self) -> dict:
        """The agent main loop; returns run stats when it exits."""
        self._register()
        idle_since: float | None = None
        while not self.stop_event.is_set():
            try:
                status, response = self.client.post(
                    "/leases", {"worker_id": self.worker_id}
                )
            except ServiceError:
                # Manager gone beyond the client's retry budget after we
                # were already registered: drain and exit cleanly — a
                # worker outliving its manager is shutdown, not a bug.
                self.manager_lost = True
                break
            if status != 200:
                # Manager shutting down or refusing us: back off, retry.
                if self.stop_event.wait(self.poll_interval_s):
                    break
                continue
            grant = response.get("lease")
            if grant is None:
                now = time.monotonic()
                if not response.get("has_work"):
                    if self.max_idle_s is not None:
                        idle_since = idle_since if idle_since is not None else now
                        if now - idle_since >= self.max_idle_s:
                            break
                else:
                    idle_since = None
                wait = min(
                    self.poll_interval_s,
                    float(response.get("retry_in_s") or self.poll_interval_s),
                )
                if self.stop_event.wait(wait):
                    break
                continue
            idle_since = None
            if self.chaos is not None:
                self.chaos.on_lease()
            try:
                self._execute_and_deliver(grant)
            except ServiceError:
                # Could not deliver (manager gone past the retry budget):
                # the result is lost here but the shard will be re-leased
                # and re-run — determinism makes that merely wasteful.
                self.shards_failed += 1
                self.manager_lost = True
                break
        return {
            "worker_id": self.worker_id,
            "shards_done": self.shards_done,
            "shards_failed": self.shards_failed,
            "leases_lost": self.leases_lost,
            "manager_lost": self.manager_lost,
        }

    # ----------------------------------------------------------- internals

    def _execute_and_deliver(self, grant: dict) -> None:
        heartbeat_done = threading.Event()
        lease_lost = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat,
            args=(grant, heartbeat_done, lease_lost),
            name=f"heartbeat-{grant['lease_id']}",
            daemon=True,
        )
        beat.start()
        try:
            outcome = self._execute(grant)
        except Exception as exc:  # defensive: _run_one_pair should not raise
            heartbeat_done.set()
            beat.join(timeout=2.0)
            self.shards_failed += 1
            self.client.post(
                "/shards/fail",
                {
                    "campaign_id": grant["campaign_id"],
                    "key": grant["key"],
                    "worker_id": self.worker_id,
                    "error": f"worker-side crash: {exc}",
                    "attempt": int(grant.get("attempt", 0)),
                },
            )
            return
        heartbeat_done.set()
        beat.join(timeout=2.0)
        if lease_lost.is_set():
            self.leases_lost += 1
        status, response = self.client.post(
            "/shards/complete",
            {
                "campaign_id": grant["campaign_id"],
                "key": grant["key"],
                "worker_id": self.worker_id,
                "outcome": outcome,
            },
        )
        if status == 200 and not outcome.get("failed"):
            self.shards_done += 1
        else:
            self.shards_failed += 1

    def _execute(self, grant: dict) -> dict:
        """Run one shard exactly the way the serial campaign loop would."""
        payload = grant["payload"]
        self.progress.begin(payload.get("workload", ""))
        scale = _SCALES[payload["scale"]]
        policy = RetryPolicy(
            timeout_s=payload.get("timeout_s"),
            max_retries=int(payload.get("max_retries", 2)),
        )
        recorder = IncidentRecorder()
        machine_cache = (
            CheckpointStore(self.machine_cache_dir, recorder=recorder)
            if self.machine_cache_dir
            else None
        )
        trace_cache = (
            TraceStore(self.trace_cache_dir, recorder=recorder)
            if self.trace_cache_dir
            else None
        )

        def run_fn(workload: str, scale_obj, abtb: int, gate=None):
            # Gate the progress callback per attempt: a timed-out
            # attempt's abandoned thread keeps simulating, and without the
            # gate it would keep banking progress into the retry
            # attempt's heartbeats.
            progress = self.progress.add
            if gate is not None:
                progress = gate.wrap(progress)
            return run_pair(
                workload,
                scale_obj,
                abtb,
                seed=payload.get("seed"),
                machine_cache=machine_cache,
                trace_cache=trace_cache,
                progress=progress,
            )

        outcome = _run_one_pair(
            grant["key"],
            payload["workload"],
            scale,
            int(payload["abtb"]),
            policy,
            run_fn,
            time.sleep,
        )
        outcome["incidents"] = recorder.as_dicts()
        return outcome

    def _heartbeat(
        self, grant: dict, done: threading.Event, lost: threading.Event
    ) -> None:
        """Renew the lease until the shard finishes."""
        lease_id = grant["lease_id"]
        while not done.wait(self.renew_every_s):
            try:
                status, _ = self.client.post(
                    f"/leases/{lease_id}/renew",
                    {"worker_id": self.worker_id, "progress": self.progress.snapshot()},
                )
            except ServiceError:
                # Manager gone for longer than the client's retry budget:
                # the lease will expire server-side; keep computing and
                # deliver anyway once it is back.
                lost.set()
                return
            if status != 200:
                lost.set()
                return
