"""Integrity-checked JSON artifacts: checksummed, versioned, atomic.

Every persistent artifact the campaign layer trusts across process
boundaries — machine checkpoints, campaign resume checkpoints,
manifests — is written through this module.  The on-disk
form is an *envelope*, one line of compact JSON with sorted keys::

    {"payload": { ... },                   # the actual content
     "schema": "repro.machine-state",      # artifact family
     "schema_version": 4,                  # family's schema version
     "sha256": "<hex digest>"}             # over the canonical payload

The checksum is computed over the canonical payload serialisation
(``json.dumps(payload, sort_keys=True)``), so it is independent of the
envelope's own formatting: envelopes written in the older ``indent=2``
layout still read.  The payload is serialised once per write: that one
canonical text is hashed and spliced into the envelope as it stands
(:func:`envelope_text`).  Writes are atomic (:func:`atomic_write`),
so a crash mid-write leaves either the old artifact or none — never a
torn one.  Reads verify the envelope shape, schema name, schema version
and checksum (an envelope in the one-line layout by hashing its stored
payload bytes, so only the payload is parsed and nothing is
re-encoded), raising :class:`~repro.errors.CheckpointCorruptionError`
with a machine-readable ``reason`` on any failure; owners translate that
into "rebuild" (re-simulate a machine checkpoint, requeue campaign
entries) and record an incident, rather than trusting corrupt bytes.

Nothing in an envelope is time- or host-dependent: two processes writing
the same payload produce byte-identical files, preserving the sharded ==
serial determinism contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro.errors import CheckpointCorruptionError

#: Version of the envelope format itself (not of any payload schema).
INTEGRITY_VERSION = 1

_ENVELOPE_KEYS = {"schema", "schema_version", "sha256", "payload"}


def canonical_payload(payload: object) -> str:
    """The canonical serialisation the checksum is computed over."""
    return json.dumps(payload, sort_keys=True)


def payload_checksum(payload: object) -> str:
    """SHA-256 hex digest of the canonical payload serialisation."""
    return hashlib.sha256(canonical_payload(payload).encode()).hexdigest()


def envelope_text(canonical: str, schema: str, schema_version: int) -> str:
    """The envelope around already-canonical payload text.

    ``canonical`` must be :func:`canonical_payload` of the payload.  The
    result is byte-identical to ``json.dumps(envelope, sort_keys=True)``
    ("payload" < "schema" < "schema_version" < "sha256"), built without
    encoding the payload a second time.
    """
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    return (
        f'{{"payload": {canonical}, "schema": {json.dumps(schema)}, '
        f'"schema_version": {json.dumps(schema_version)}, "sha256": "{digest}"}}'
    )


def atomic_write(path: str | Path, data: str | bytes) -> Path:
    """Write ``data`` (text is UTF-8 encoded) to ``path`` atomically,
    creating its directory.

    Each writer gets its own temp file in the target directory, so two
    processes writing the same path cannot race on a shared ``.tmp``
    name: each rename is whole, and the last one wins.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def write_artifact(
    path: str | Path, payload: object, schema: str, schema_version: int
) -> Path:
    """Atomically write an integrity-checked artifact."""
    return write_canonical(path, canonical_payload(payload), schema, schema_version)


def write_canonical(
    path: str | Path, canonical: str, schema: str, schema_version: int
) -> Path:
    """Atomically write the envelope around canonical payload text.

    For callers that already hold ``canonical_payload(payload)`` (and have
    checked it): the text is hashed and written as it stands.
    """
    return atomic_write(path, envelope_text(canonical, schema, schema_version))


def _stored_payload_text(text: str, schema: str, schema_version: int) -> str | None:
    """The payload span of an envelope in exactly :func:`envelope_text`'s
    layout for this schema and version whose SHA-256 matches the stored
    digest, else ``None``.

    A matching digest proves the span is the canonical text hashed at
    write time, so it can be parsed on its own, without re-encoding.
    """
    head = '{"payload": '
    tail = (
        f', "schema": {json.dumps(schema)}, '
        f'"schema_version": {json.dumps(schema_version)}, "sha256": "'
    )
    end = len(text) - len(tail) - 66  # 64 hex digits, then '"}'
    if (
        end < len(head)
        or not text.startswith(head)
        or not text.startswith(tail, end)
        or not text.endswith('"}')
    ):
        return None
    span = text[len(head):end]
    if hashlib.sha256(span.encode()).hexdigest() != text[-66:-2]:
        return None
    return span


def unwrap_artifact(text: str, schema: str, schema_version: int, source: object = None):
    """Validate an envelope's text and return its payload.

    An envelope in :func:`envelope_text`'s layout is verified by hashing
    the stored payload bytes and parsing only them.  Anything else — the
    older ``indent=2`` layout, another schema or version, a damaged
    envelope or a checksum mismatch — takes the full parse and
    re-encode below, which names what is wrong.

    Raises :class:`CheckpointCorruptionError` with ``reason`` one of
    ``not-json | bad-envelope | wrong-schema | wrong-version |
    checksum-mismatch``.
    """
    span = _stored_payload_text(text, schema, schema_version)
    if span is not None:
        try:
            return json.loads(span)
        except json.JSONDecodeError:
            pass  # hashed, but not a JSON value: the full parse names it
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointCorruptionError(
            f"artifact {source or '<text>'} is not valid JSON: {exc}",
            path=source,
            reason="not-json",
        ) from exc
    if not isinstance(envelope, dict) or not _ENVELOPE_KEYS.issubset(envelope):
        missing = sorted(_ENVELOPE_KEYS - set(envelope)) if isinstance(envelope, dict) else []
        raise CheckpointCorruptionError(
            f"artifact {source or '<text>'} has no integrity envelope "
            f"(missing {missing or 'object structure'})",
            path=source,
            reason="bad-envelope",
        )
    if envelope["schema"] != schema:
        raise CheckpointCorruptionError(
            f"artifact {source or '<text>'}: schema {envelope['schema']!r} "
            f"(expected {schema!r})",
            path=source,
            reason="wrong-schema",
        )
    if envelope["schema_version"] != schema_version:
        raise CheckpointCorruptionError(
            f"artifact {source or '<text>'}: schema version "
            f"{envelope['schema_version']!r} (expected {schema_version})",
            path=source,
            reason="wrong-version",
        )
    payload = envelope["payload"]
    digest = payload_checksum(payload)
    if digest != envelope["sha256"]:
        raise CheckpointCorruptionError(
            f"artifact {source or '<text>'}: checksum mismatch "
            f"(stored {str(envelope['sha256'])[:12]}…, computed {digest[:12]}…) — "
            f"content is corrupt",
            path=source,
            reason="checksum-mismatch",
        )
    return payload


def read_artifact(path: str | Path, schema: str, schema_version: int):
    """Read and validate an integrity-checked artifact; returns the payload.

    Raises :class:`CheckpointCorruptionError` — ``reason="missing"`` when
    the file does not exist, ``reason="unreadable"`` when it cannot be
    read at all.  Callers should read-and-catch rather than probe with
    ``exists()`` first: the single attempt has no TOCTOU window against
    concurrent writers or cleaners.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError as exc:
        raise CheckpointCorruptionError(
            f"artifact {path} does not exist", path=path, reason="missing"
        ) from exc
    except OSError as exc:
        raise CheckpointCorruptionError(
            f"artifact {path} unreadable: {exc}", path=path, reason="unreadable"
        ) from exc
    return unwrap_artifact(text, schema, schema_version, source=path)
