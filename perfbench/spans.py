"""In-memory spans around the program's public calls, installed from outside.

The benchmark never edits the program: :class:`Tracer` replaces a public
function at every place a caller looks it up (each ``repro`` module that
holds a binding to it) or a method on its class, records one span per call
and restores everything on exit.  A span is ``[id, name, start, end,
parent]`` on the ``time.perf_counter`` clock, which is ``CLOCK_MONOTONIC``
on Linux and therefore comparable across the processes of one host.

Sweep workers are forked from the tracing process, so they inherit the
wrapped functions.  Each worker task writes the spans it recorded to a
spill file, and :meth:`Tracer.merge_spills` folds them back into the
parent's list, where a worker span's parent is the parent-process span
that was open when the pool forked.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


class Recorder:
    """Spans and counters of one process, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[str] = []
        self._seq = 0

    def open(self, name: str) -> list:
        self._seq += 1
        span = [
            f"{os.getpid()}-{self._seq}",
            name,
            time.perf_counter(),
            None,
            self._stack[-1] if self._stack else None,
        ]
        self._stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def reset(self) -> None:
        """Drop recorded spans and counters; open spans stay open."""
        self.spans = []
        self.counts = defaultdict(float)


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time of each span id: its duration minus the union of the
    intervals its children cover (worker children may overlap)."""
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total (inclusive) and self seconds."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for sid, name, start, end, _parent in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own[sid]
    return dict(out)


# Sweep workers receive their task function by pickled reference, so the
# wrapper around the campaign worker must be a module-level function; it
# finds the recorder and the wrapped original through this slot, which
# ``Tracer`` fills before the pool forks and clears when it uninstalls.
_WORKER: dict = {}


def traced_campaign_worker(task: dict) -> dict:
    """Run one campaign task in a forked worker and spill its spans."""
    recorder: Recorder = _WORKER["recorder"]
    recorder.reset()
    try:
        return recorder.call("sweep.worker_task", _WORKER["original"], task)
    finally:
        spill = Path(_WORKER["spill_dir"]) / f"spans-{os.getpid()}-{recorder._seq}.json"
        spill.write_text(json.dumps({"spans": recorder.spans, "counts": recorder.counts}))


class Tracer:
    """Installs span wrappers into the loaded ``repro`` modules.

    ``function(module, attr, name)`` wraps a module-level function at every
    ``repro`` module binding that refers to it; ``method(cls, attr, name)``
    wraps a (class)method on its class.  ``name`` may be a callable of the
    call's arguments.  ``before(recorder, args, kwargs)`` and ``after(recorder,
    args, kwargs, result)`` run outside the span to update counters;
    ``before`` returns the arguments to call with, so it may materialise an
    iterable it needs to count.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.spill_dir: Path | None = None
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, after=None, before=None):
        recorder = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(recorder, args, kwargs)
            label = name(args, kwargs) if callable(name) else name
            result = recorder.call(label, fn, *args, **kwargs)
            if after is not None:
                after(recorder, args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module, attr: str, name, after=None) -> None:
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapper)

    def method(self, cls, attr: str, name, after=None, before=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = self._wrap(raw.__func__, name, after, before)
            self._set(cls, attr, classmethod(wrapped))
        else:
            self._set(cls, attr, self._wrap(raw, name, after, before))

    def campaign_worker(self, runner_module, spill_dir: Path) -> None:
        """Route sharded campaign tasks through :func:`traced_campaign_worker`,
        which spills each task's spans into ``spill_dir``."""
        self.spill_dir = spill_dir
        spill_dir.mkdir(parents=True, exist_ok=True)
        _WORKER.update(
            recorder=self.recorder,
            original=runner_module._campaign_worker,
            spill_dir=str(self.spill_dir),
        )
        self._set(runner_module, "_campaign_worker", traced_campaign_worker)

    def merge_spills(self) -> None:
        """Fold spans and counters written by worker processes into ours."""
        if self.spill_dir is None:
            return
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            payload = json.loads(path.read_text())
            self.recorder.spans.extend(payload["spans"])
            for key, value in payload["counts"].items():
                self.recorder.counts[key] += value
            path.unlink()

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        _WORKER.clear()
