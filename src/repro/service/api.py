"""REST front-end for the campaign manager (stdlib ``http.server``).

JSON over HTTP, dataclass-schema validated, served by a
``ThreadingHTTPServer`` (one thread per request; the manager serialises
state behind its own lock).  Routes::

    GET  /healthz                    liveness + campaign count
    GET  /metrics                    Prometheus text exposition
    GET  /metrics?format=jsonl       metrics as JSON lines (offline export)
    GET  /incidents                  incident log, JSON lines
    GET  /events                     live event stream (Server-Sent Events)
    GET  /events/log                 retained events, JSON lines
    GET  /timeseries                 list series names
    GET  /timeseries?name=...        one downsampled series window as JSON
    GET  /dash                       self-contained live dashboard (HTML)
    GET  /dash/data                  the dashboard's JSON snapshot
    GET  /campaigns                  list campaigns
    POST /campaigns                  submit (body: CampaignSpec)
    GET  /campaigns/<id>             one campaign's status
    GET  /campaigns/<id>/result      final CampaignResult (409 while running)
    POST /campaigns/<id>/cancel      cancel
    POST /workers/register           register (body: RegisterRequest)
    POST /leases                     acquire a lease (body: LeaseRequest)
    POST /leases/<id>/renew          heartbeat (body: RenewRequest,
                                     optionally carrying ShardProgress)
    POST /shards/complete            deliver an outcome (body: CompleteRequest)
    POST /shards/fail                report a failure (body: FailRequest)

Error mapping: :class:`~repro.errors.SchemaError` → 400, unknown
resources → 404, a known resource hit with the wrong method → 405,
:class:`~repro.errors.ServiceError` (including a shut down manager) →
409/503.  Lease acquire returns ``{"lease": null}`` rather than an error
when no work is ready — polling idle is not a fault.

``GET /events`` streams SSE frames (``id: <seq>`` + ``data: <json>``)
over the stdlib threading server: the response carries ``Connection:
close`` (no Content-Length on an unbounded stream), idle periods send
``: keep-alive`` comment frames, and a reconnecting client resumes from
its last sequence number via the standard ``Last-Event-ID`` header (or
``?since=N``).  ``?limit=N`` closes the stream after N data frames —
deterministic for tests and the CI smoke job.

A background *sweeper* thread calls :meth:`CampaignManager.tick`
periodically so leases held by crashed workers expire even when no
worker is polling.
"""

from __future__ import annotations

import json
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import SchemaError, ServiceError
from repro.obs.dashboard import render_dashboard, snapshot_from_manager
from repro.obs.events import downsample
from repro.obs.metrics import TimeSeries
from repro.service.manager import CampaignManager
from repro.service.schemas import (
    CampaignSpec,
    CompleteRequest,
    FailRequest,
    LeaseRequest,
    RegisterRequest,
    RenewRequest,
)


def _result_as_dict(result) -> dict:
    return {
        "completed": result.completed,
        "failed": result.failed,
        "attempts": result.attempts,
        "resumed": result.resumed,
        "quarantined": result.quarantined,
    }


class _Handler(BaseHTTPRequestHandler):
    """Dispatches one request against the server's manager."""

    server: "ManagerServer"  # set by ThreadingHTTPServer machinery
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------ plumbing

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _send(self, status: int, body: str, content_type: str = "application/json") -> None:
        data = body.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_json(self, status: int, payload: dict) -> None:
        self._send(status, json.dumps(payload))

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise SchemaError(
                f"request body must be a JSON object, got {type(body).__name__}"
            )
        return body

    def _split_path(self) -> tuple[list[str], dict[str, str]]:
        """Path segments plus flattened (last-wins) query parameters."""
        parsed = urllib.parse.urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        query = {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(parsed.query).items()
        }
        return parts, query

    @staticmethod
    def _int_param(query: dict, name: str, default: int) -> int:
        value = query.get(name)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            raise SchemaError(f"query parameter {name!r} must be an integer") from None

    # ------------------------------------------------------------- methods

    def do_GET(self) -> None:  # noqa: N802
        try:
            self._route_get()
        except SchemaError as exc:
            self._send_json(400, {"error": str(exc)})
        except ServiceError as exc:
            self._send_json(409, {"error": str(exc)})
        except (BrokenPipeError, ConnectionResetError):
            pass  # SSE client hung up mid-stream; nothing to answer
        except Exception as exc:  # pragma: no cover - last-resort guard
            self._send_json(500, {"error": f"internal error: {exc}"})

    def do_POST(self) -> None:  # noqa: N802
        try:
            self._route_post()
        except SchemaError as exc:
            self._send_json(400, {"error": str(exc)})
        except ServiceError as exc:
            status = 503 if "shut down" in str(exc) else 409
            self._send_json(status, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - last-resort guard
            self._send_json(500, {"error": f"internal error: {exc}"})

    # -------------------------------------------------------------- routes

    def _route_get(self) -> None:
        manager = self.server.manager
        parts, query = self._split_path()
        if parts == ["healthz"]:
            self._send_json(
                200,
                {
                    "ok": True,
                    "campaigns": len(manager.list_campaigns()),
                    "seq": manager.journal.seq,
                },
            )
        elif parts == ["metrics"]:
            if query.get("format") == "jsonl":
                self._send(200, manager.metrics.to_jsonl(), "application/x-ndjson")
            else:
                self._send(
                    200, manager.metrics.to_prometheus(), "text/plain; version=0.0.4"
                )
        elif parts == ["incidents"]:
            lines = "".join(
                json.dumps(d, sort_keys=True) + "\n"
                for d in manager.recorder.as_dicts()
            )
            self._send(200, lines, "application/x-ndjson")
        elif parts == ["events"]:
            self._stream_events(query)
        elif parts == ["events", "log"]:
            since = self._int_param(query, "since", 0)
            lines = "".join(
                json.dumps(e.as_dict(), sort_keys=True) + "\n"
                for e in manager.bus.since(since)
            )
            self._send(200, lines, "application/x-ndjson")
        elif parts == ["timeseries"]:
            self._serve_timeseries(query)
        elif parts == ["dash"]:
            self._send(
                200,
                render_dashboard(snapshot_from_manager(manager)),
                "text/html; charset=utf-8",
            )
        elif parts == ["dash", "data"]:
            self._send_json(200, snapshot_from_manager(manager))
        elif parts == ["campaigns"]:
            self._send_json(200, {"campaigns": manager.list_campaigns()})
        elif len(parts) == 2 and parts[0] == "campaigns":
            status = manager.status(parts[1])
            if status is None:
                self._send_json(404, {"error": f"no campaign {parts[1]!r}"})
            else:
                self._send_json(200, status)
        elif len(parts) == 3 and parts[0] == "campaigns" and parts[2] == "result":
            status = manager.status(parts[1])
            if status is None:
                self._send_json(404, {"error": f"no campaign {parts[1]!r}"})
                return
            result = manager.result(parts[1])
            if result is None:
                self._send_json(
                    409, {"error": f"campaign {parts[1]} is not finished", "state": status["state"]}
                )
            else:
                self._send_json(200, _result_as_dict(result))
        elif _is_post_route(parts):
            self._send_json(
                405, {"error": f"{self.path!r} only accepts POST", "allow": "POST"}
            )
        else:
            self._send_json(404, {"error": f"no such resource {self.path!r}"})

    # ----------------------------------------------------------- telemetry

    def _serve_timeseries(self, query: dict) -> None:
        """``/timeseries`` — the name index, or one downsampled window."""
        manager = self.server.manager
        name = query.get("name")
        if name is None:
            names = [
                n
                for n in manager.metrics.names()
                if isinstance(manager.metrics.get(n), TimeSeries)
            ]
            self._send_json(200, {"series": names})
            return
        try:
            metric = manager.metrics.get(name)
        except KeyError:
            self._send_json(404, {"error": f"no series {name!r}"})
            return
        if not isinstance(metric, TimeSeries):
            self._send_json(
                404, {"error": f"metric {name!r} is a {metric.kind}, not a series"}
            )
            return
        since = float(query.get("since", 0.0) or 0.0)
        max_points = self._int_param(query, "max_points", 200)
        if max_points < 2:
            raise SchemaError("max_points must be >= 2")
        points = [p for p in metric.points() if p[0] >= since]
        window = downsample(points, max_points)
        self._send_json(
            200,
            {
                "name": name,
                "points": [[t, v] for t, v in window],
                "total_points": len(points),
                "downsampled": len(window) < len(points),
                "appended": metric.appended,
            },
        )

    def _stream_events(self, query: dict) -> None:
        """``/events`` — SSE until the client leaves, the server stops,
        or an optional ``?limit=N`` frame budget is spent."""
        bus = self.server.manager.bus
        header_cursor = self.headers.get("Last-Event-ID")
        default_since = int(header_cursor) if (header_cursor or "").isdigit() else 0
        cursor = self._int_param(query, "since", default_since)
        limit = self._int_param(query, "limit", 0)
        keepalive_s = self.server.sse_keepalive_s
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # An unbounded stream has no Content-Length; close delimits it.
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        sent = 0
        stop = self.server.stop_event
        # Every socket write below goes through _sse_write: a half-closed
        # client (BrokenPipe/ConnectionReset, or any OSError the kernel
        # surfaces later) detaches this subscriber by returning from the
        # handler — it must never propagate into the server machinery or
        # leave the thread wedged writing into a dead socket.
        while not stop.is_set():
            events = bus.since(cursor)
            if not events:
                if not bus.wait_for(cursor, timeout=keepalive_s):
                    if not self._sse_write(b": keep-alive\n\n"):
                        return
                    continue
                events = bus.since(cursor)
            for event in events:
                frame = f"id: {event.seq}\ndata: {json.dumps(event.as_dict())}\n\n"
                if not self._sse_write(frame.encode()):
                    return
                cursor = event.seq
                sent += 1
                if limit and sent >= limit:
                    return

    def _sse_write(self, data: bytes) -> bool:
        """Write + flush one SSE frame; False when the client is gone."""
        try:
            self.wfile.write(data)
            self.wfile.flush()
        except OSError:
            return False
        return True

    def _route_post(self) -> None:
        manager = self.server.manager
        parts, _query = self._split_path()
        body = self._read_body()
        if parts == ["campaigns"]:
            spec = CampaignSpec.from_dict(body)
            self._send_json(201, {"campaign_id": manager.submit(spec)})
        elif len(parts) == 3 and parts[0] == "campaigns" and parts[2] == "cancel":
            self._send_json(200, {"cancelled": manager.cancel(parts[1])})
        elif parts == ["workers", "register"]:
            request = RegisterRequest.from_dict(body)
            self._send_json(
                200, manager.register_worker(request.name, request.worker_id)
            )
        elif parts == ["leases"]:
            request = LeaseRequest.from_dict(body)
            grant = manager.lease(request.worker_id)
            if grant is None:
                self._send_json(
                    200,
                    {
                        "lease": None,
                        "has_work": manager.queue.has_work(),
                        "retry_in_s": self.server.idle_retry_s,
                    },
                )
            else:
                self._send_json(200, {"lease": grant})
        elif len(parts) == 3 and parts[0] == "leases" and parts[2] == "renew":
            request = RenewRequest.from_dict(body)
            renewed = manager.renew(
                parts[1],
                request.worker_id,
                progress=(
                    request.progress.as_dict()
                    if request.progress is not None
                    else None
                ),
            )
            # 410 Gone tells the worker its lease is lost (expired or the
            # manager restarted); the worker keeps computing and still
            # delivers — completion is key-addressed, not lease-addressed.
            if renewed is None:
                self._send_json(410, {"renewed": False})
            else:
                self._send_json(200, {"renewed": True, **renewed})
        elif parts == ["shards", "complete"]:
            request = CompleteRequest.from_dict(body)
            self._send_json(200, manager.complete(request))
        elif parts == ["shards", "fail"]:
            request = FailRequest.from_dict(body)
            self._send_json(
                200,
                manager.fail(
                    request.campaign_id,
                    request.key,
                    request.error,
                    request.worker_id,
                    attempt=request.attempt,
                ),
            )
        elif _is_get_route(parts):
            self._send_json(
                405, {"error": f"{self.path!r} only accepts GET", "allow": "GET"}
            )
        else:
            self._send_json(404, {"error": f"no such resource {self.path!r}"})


def _is_get_route(parts: list[str]) -> bool:
    """Does this path shape belong to a GET-only resource?"""
    return (
        parts
        in (
            ["healthz"], ["metrics"], ["incidents"], ["events"],
            ["events", "log"], ["timeseries"], ["dash"], ["dash", "data"],
        )
        or (len(parts) == 2 and parts[0] == "campaigns")
        or (len(parts) == 3 and parts[0] == "campaigns" and parts[2] == "result")
    )


def _is_post_route(parts: list[str]) -> bool:
    """Does this path shape belong to a POST-only resource?"""
    return (
        parts
        in (
            ["workers", "register"], ["leases"],
            ["shards", "complete"], ["shards", "fail"],
        )
        or (len(parts) == 3 and parts[0] == "campaigns" and parts[2] == "cancel")
        or (len(parts) == 3 and parts[0] == "leases" and parts[2] == "renew")
    )


class ManagerServer:
    """The manager behind a threaded HTTP server + expiry sweeper.

    ``port=0`` binds an ephemeral port (tests); :attr:`port` reports the
    bound one.  ``allow_reuse_address`` (ThreadingHTTPServer's default)
    lets a restarted manager rebind the same port immediately — required
    for crash-recovery drills.
    """

    def __init__(
        self,
        manager: CampaignManager,
        host: str = "127.0.0.1",
        port: int = 8023,
        verbose: bool = False,
        idle_retry_s: float = 0.25,
        sse_keepalive_s: float = 10.0,
    ) -> None:
        self.manager = manager
        self.verbose = verbose
        self.idle_retry_s = idle_retry_s
        self.sse_keepalive_s = sse_keepalive_s
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._serve_thread: threading.Thread | None = None
        self._sweep_thread: threading.Thread | None = None
        self._stop = threading.Event()
        # Hand the handler its context through the server object.
        self._httpd.manager = manager  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._httpd.idle_retry_s = idle_retry_s  # type: ignore[attr-defined]
        self._httpd.sse_keepalive_s = sse_keepalive_s  # type: ignore[attr-defined]
        self._httpd.stop_event = self._stop  # type: ignore[attr-defined]
        self.tick_interval_s = manager.policy.shard_deadline_s / 10.0

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Serve + sweep in background threads; returns immediately."""
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever, name="manager-http", daemon=True
        )
        self._serve_thread.start()
        self._sweep_thread = threading.Thread(
            target=self._sweep, name="manager-sweeper", daemon=True
        )
        self._sweep_thread.start()

    def serve_wait(self) -> None:
        """Block (after :meth:`start`) until :meth:`stop`; the timeout
        loop keeps the main thread responsive to SIGINT/SIGTERM."""
        while not self._stop.wait(0.5):
            pass

    def stop(self, graceful: bool = True) -> None:
        """Stop serving; ``graceful`` also snapshots + closes the journal.

        With ``graceful=False`` the manager state is abandoned as-is —
        the WAL alone must carry recovery (this is the crash drill the
        E2E test exercises, minus the SIGKILL).
        """
        self._stop.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        if self._sweep_thread is not None:
            self._sweep_thread.join(timeout=5.0)
        if graceful:
            self.manager.shutdown()

    def _sweep(self) -> None:
        while not self._stop.wait(self.tick_interval_s):
            try:
                self.manager.tick()
            except ServiceError:
                break  # manager shut down under us; sweeping is over
            except Exception:  # pragma: no cover - defensive
                # A transient fault surfacing through tick (a half-closed
                # telemetry socket, a filesystem hiccup) must not kill
                # this thread: a dead sweeper means leases held by
                # crashed workers never expire again.
                continue
