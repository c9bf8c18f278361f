"""Machine-state checkpointing built on the SimComponent protocol.

A :class:`MachineState` is a versioned, JSON-safe capture of one simulated
core: the CPU/mechanism *configuration* (so a fresh machine can be rebuilt
from the file alone), the composite component snapshot, and the trace
position the capture was taken at.

The intended use is warm-up reuse: a run simulates startup + warm-up once,
captures a checkpoint, and later runs with the *identical machine
configuration* restore it instead of re-simulating — the trace generator
is advanced to the same position by draining (see
:meth:`repro.trace.engine.TraceCursor.drain`), which is far cheaper than
simulating, and the measurement window then produces counter-for-counter
identical results.  :class:`CheckpointStore` keys checkpoints by a hash of
everything that determines warm-up state, so mismatched configurations can
never share state.

A :class:`SharedPrefix` is the in-memory, single-use counterpart for one
uncached pair: the memory side (caches, TLBs and the counters they feed)
that its base and enhanced machines share until the enhanced one first
skips a trampoline, recorded by one run and adopted by the other.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from repro.core.config import MechanismConfig
from repro.core.mechanism import TrampolineSkipMechanism
from repro.errors import CheckpointCorruptionError, ConfigError
from repro.resilience.incidents import IncidentKind
from repro.resilience.integrity import canonical_payload, read_artifact, write_canonical
from repro.uarch.cpu import CPU, CPUConfig

#: Schema version of serialised machine states; it follows the embedded
#: CPU snapshot's.  Version 2: Bloom filter key set.  Version 3: cache,
#: TLB and BTB sets are flat rows in LRU order.  Version 4: no cycle
#: clock, and counters carry ``btb_bubbles``; a version 3 machine's
#: counters come from the old cycle model.  The version is part of every
#: warm-up checkpoint key (and of every stored shard result's key), so a
#: bump makes old checkpoints miss without opening them; an envelope
#: that still reads another version under a current key is damaged and
#: is logged as corruption.
MACHINE_STATE_VERSION = 4

#: Integrity-envelope schema name for on-disk machine states.
MACHINE_STATE_SCHEMA = "repro.machine-state"


@dataclass
class MachineState:
    """One core's complete simulation state, rebuildable from JSON.

    Attributes:
        version: schema version (:data:`MACHINE_STATE_VERSION`).
        cpu_config: :meth:`CPUConfig.as_dict` of the captured machine.
        mechanism_config: mechanism config dict, or None for a base CPU.
        cpu: the composite :meth:`CPU.snapshot` payload.
        trace_position: events consumed from the trace when captured.
        meta: free-form caller context (workload name, warm-up size, ...).
    """

    cpu_config: dict
    cpu: dict
    mechanism_config: dict | None = None
    trace_position: int = 0
    meta: dict = field(default_factory=dict)
    version: int = MACHINE_STATE_VERSION

    # ------------------------------------------------------------- capture

    @classmethod
    def capture(
        cls,
        cpu: CPU,
        trace_position: int = 0,
        meta: dict | None = None,
    ) -> "MachineState":
        """Snapshot a live CPU (and its mechanism, if any)."""
        return cls(
            cpu_config=cpu.config.as_dict(),
            mechanism_config=(
                asdict(cpu.mechanism.config) if cpu.mechanism is not None else None
            ),
            cpu=cpu.snapshot(),
            trace_position=trace_position,
            meta=dict(meta or {}),
        )

    # ------------------------------------------------------------- restore

    def restore_into(self, cpu: CPU) -> None:
        """Restore this state into an already-built, matching CPU."""
        if self.version != MACHINE_STATE_VERSION:
            raise ConfigError(
                f"machine state version {self.version!r} unsupported "
                f"(expected {MACHINE_STATE_VERSION})"
            )
        if cpu.config.as_dict() != self.cpu_config:
            raise ConfigError(
                "machine state was captured under a different CPUConfig; "
                "refusing to restore"
            )
        mech_cfg = (
            asdict(cpu.mechanism.config) if cpu.mechanism is not None else None
        )
        if mech_cfg != self.mechanism_config:
            raise ConfigError(
                "machine state was captured under a different mechanism "
                "configuration; refusing to restore"
            )
        cpu.restore(self.cpu)

    def build_cpu(self, hooks=None, registry=None) -> CPU:
        """Rebuild a fresh CPU from the stored configs and restore into it."""
        config = CPUConfig.from_dict(self.cpu_config)
        mechanism = None
        if self.mechanism_config is not None:
            mechanism = TrampolineSkipMechanism(MechanismConfig(**self.mechanism_config))
        cpu = CPU(config, mechanism=mechanism, hooks=hooks, registry=registry)
        self.restore_into(cpu)
        return cpu

    # --------------------------------------------------------- persistence

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, so equal states serialise equally).

        The fields already hold JSON-safe dicts and lists, so they are
        encoded as they stand, without a deep copy.
        """
        return canonical_payload({f.name: getattr(self, f.name) for f in fields(self)})

    @classmethod
    def from_payload(cls, data: object) -> "MachineState":
        """Build a state from an already-parsed payload dict."""
        if not isinstance(data, dict):
            raise ConfigError(f"machine state must be a JSON object, got {type(data).__name__}")
        known = {"version", "cpu_config", "mechanism_config", "cpu", "trace_position", "meta"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown machine-state field(s): {sorted(unknown)}")
        state = cls(**data)
        if state.version != MACHINE_STATE_VERSION:
            raise ConfigError(
                f"machine state version {state.version!r} unsupported "
                f"(expected {MACHINE_STATE_VERSION})"
            )
        return state

    @classmethod
    def from_json(cls, text: str) -> "MachineState":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"machine state is not valid JSON: {exc}") from exc
        return cls.from_payload(data)

    def save(self, path: str | Path) -> Path:
        """Atomically write the state inside an integrity envelope.

        The state is encoded once: that canonical text is round-trip
        validated, hashed and written, so a state that fails validation
        is never written.  The payload checksum and schema version in the
        envelope let :meth:`load` distinguish truncation and bit rot from
        honest absence.
        """
        text = self.to_json()
        _validate_text(text)
        return write_canonical(path, text, MACHINE_STATE_SCHEMA, MACHINE_STATE_VERSION)

    @classmethod
    def load(cls, path: str | Path) -> "MachineState":
        """Load an integrity-checked machine state.

        Raises :class:`~repro.errors.CheckpointCorruptionError` when the
        envelope is damaged and :class:`ConfigError` when the payload
        inside a *valid* envelope is malformed.
        """
        payload = read_artifact(path, MACHINE_STATE_SCHEMA, MACHINE_STATE_VERSION)
        return cls.from_payload(payload)

    # ---------------------------------------------------------- validation

    def validate_roundtrip(self) -> None:
        """Prove the state survives JSON and restores bit-for-bit.

        Raises :class:`ConfigError` on any divergence — a checkpoint that
        fails this must never be written to disk.
        """
        _validate_text(self.to_json())


#: The structures a base and an enhanced machine probe with the same keys
#: until the enhanced one first skips a trampoline: what they fetch and load.
MEMORY_STRUCTURES = ("l1i", "itlb", "dtlb", "l1d", "l2")

#: The counters the batched backend adds outside its control pass.
MEMORY_COUNTERS = (
    "instructions",
    "l1i_accesses",
    "l1i_misses",
    "itlb_accesses",
    "itlb_misses",
    "dtlb_accesses",
    "dtlb_misses",
    "l1d_accesses",
    "l1d_misses",
    "l2_accesses",
    "l2_misses",
    "branches",
    "loads",
    "stores",
    "got_loads",
)


class SharedPrefix:
    """The start of a trace that both machines of a pair retire alike.

    A skipped trampoline is the only thing that makes an enhanced machine
    fetch or load other rows than a base machine.  Until its first skip,
    both machines' *memory side* — the :data:`MEMORY_STRUCTURES` and the
    :data:`MEMORY_COUNTERS` — stay equal.  The run that retires first
    :meth:`record`\\ s its memory side at row :attr:`at`.  The other run
    retires only the control pass before that row and :meth:`adopt`\\ s
    the record there (see
    :meth:`~repro.uarch.backend.BatchedBackend.run_batches`).  Rows are
    counted over every ``run_batches`` call of one run: :attr:`offset`
    holds the rows of the earlier calls.

    The record is held in memory, never serialised, and is adopted once:
    the adopting machine takes the recorded sets over without copying.
    """

    def __init__(self) -> None:
        #: The row at which the two memory sides part, once recorded.
        self.at: int | None = None
        #: Rows retired by earlier ``run_batches`` calls of the run.
        self.offset = 0
        #: Whether this run adopts the record (else it records one).
        self.adopting = False
        #: Whether this run has recorded or adopted.
        self.done = False
        self._side: tuple | None = None

    def record(self, cpu: CPU, at: int) -> None:
        """Keep a copy of ``cpu``'s memory side as it stands before row ``at``."""
        self.at = at
        self._side = (
            cpu.config.as_dict(),
            [
                ([dict(entries) for entries in s._sets], s._stamp, s.accesses, s.misses)
                for s in (getattr(cpu, name) for name in MEMORY_STRUCTURES)
            ],
            [getattr(cpu.counters, name) for name in MEMORY_COUNTERS],
        )
        self.done = True

    def handed_over(self) -> "SharedPrefix":
        """This record, for the pair's other run to adopt."""
        if self._side is None:
            raise ConfigError("a shared prefix is handed over once, after it is recorded")
        other = SharedPrefix()
        other.at, other._side, other.adopting = self.at, self._side, True
        self._side = None
        return other

    def adopt(self, cpu: CPU, at: int) -> None:
        """Give ``cpu`` the recorded memory side; ``at`` must be the row
        it was recorded before."""
        if not self.adopting or self._side is None:
            raise ConfigError("only a handed-over shared prefix is adopted, once")
        if at != self.at:
            raise ConfigError(
                f"shared prefix recorded before row {self.at} cannot be adopted at row {at}"
            )
        config, structures, counters = self._side
        if cpu.config.as_dict() != config:
            raise ConfigError("shared prefix was recorded under a different CPUConfig")
        for name, (sets, stamp, accesses, misses) in zip(MEMORY_STRUCTURES, structures):
            structure = getattr(cpu, name)
            structure._sets = sets
            structure._stamp, structure.accesses, structure.misses = stamp, accesses, misses
        for name, value in zip(MEMORY_COUNTERS, counters):
            setattr(cpu.counters, name, value)
        self._side = None
        self.done = True


def _validate_text(text: str) -> None:
    """Round-trip check of a machine state's canonical JSON text.

    Rebuilds a fresh machine from one parse of ``text`` and compares its
    re-taken snapshot against a second, independent parse, so the restore
    cannot have touched the copy it is compared with.
    """
    retaken = MachineState.from_json(text).build_cpu().snapshot()
    original = json.loads(text)["cpu"]
    if retaken != original:
        diverged = [
            name
            for name in original.get("components", {})
            if retaken.get("components", {}).get(name)
            != original["components"].get(name)
        ]
        raise ConfigError(
            f"machine state failed round-trip validation "
            f"(diverging components: {diverged or 'top-level fields'})"
        )


def machine_key(**parts) -> str:
    """Stable identity hash over everything that determines machine state.

    Callers pass the full recipe — workload config, link mode, CPU config,
    mechanism config, warm-up sizes — as JSON-safe values; any difference
    yields a different key, so checkpoints can never be shared across
    configurations that would diverge.
    """
    canonical = json.dumps(parts, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


class CheckpointStore:
    """A directory of machine-state checkpoints keyed by config hash.

    Writes are atomic, so concurrent campaign workers that race to produce
    the same checkpoint simply last-write-wins with identical content.

    A corrupted or truncated checkpoint is *detected* (integrity envelope:
    schema version + content checksum) and treated as a miss — the caller
    re-simulates warm-up and overwrites it — never trusted.  When an
    :class:`~repro.resilience.incidents.IncidentRecorder` is attached, each
    such detection is logged as a ``checkpoint_corrupt`` incident.
    """

    def __init__(self, root: str | Path, recorder=None) -> None:
        self.root = Path(root)
        self.recorder = recorder
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def path(self, key: str) -> Path:
        return self.root / f"{key}.machine.json"

    def load(self, key: str) -> MachineState | None:
        """The stored state for ``key``, or None (corrupt files count as misses).

        Read-and-catch, not exists()-then-read: a concurrent cleaner (or a
        racing writer's rename) between probe and read would otherwise turn
        an honest miss into a spurious corruption incident.
        """
        path = self.path(key)
        try:
            state = MachineState.load(path)
        except (OSError, ValueError, ConfigError, CheckpointCorruptionError) as exc:
            self.misses += 1
            reason = getattr(exc, "reason", type(exc).__name__)
            if reason == "missing":
                return None  # honest cache miss, not corruption
            if self.recorder is not None:
                self.recorder.record(
                    IncidentKind.CHECKPOINT_CORRUPT,
                    f"machine checkpoint {path.name} failed integrity "
                    f"validation ({reason}); will re-simulate",
                    key=key,
                    path=str(path),
                    reason=reason,
                )
            return None
        self.hits += 1
        return state

    def save(self, key: str, state: MachineState) -> Path:
        self.writes += 1
        return state.save(self.path(key))

    def keys(self) -> list[str]:
        if not self.root.exists():
            return []
        return sorted(p.name[: -len(".machine.json")] for p in self.root.glob("*.machine.json"))
