"""Golden counters: every workload x {base, ABTB 16, ABTB 256}, pinned.

The fixtures in ``tests/golden/`` hold the measured-window
``PerfCounters`` plus the mechanism's event counts for each run at a
tiny scale.  Any change that moves a single counter fails here, so a
refactor of the execution path cannot silently shift a paper number.
Each fixture is checked twice: once plain, and once under an
observability session with the profiler and counter sampler on, which
must observe without perturbing.

Regenerate (only when a counter change is intended and explained)::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core import MechanismConfig, TrampolineSkipMechanism
from repro.experiments.runner import run_workload
from repro.obs import Observability
from repro.workloads import ALL_WORKLOADS

GOLDEN_DIR = Path(__file__).parent / "golden"
WARMUP = 1
MEASURED = 3
CONFIGS = {"base": None, "abtb16": 16, "abtb256": 256}
OBS_SAMPLE_EVERY = 5000


def _capture(workload: str, abtb: int | None, obs=None) -> dict:
    mech = (
        TrampolineSkipMechanism(MechanismConfig(abtb_entries=abtb))
        if abtb is not None
        else None
    )
    result = run_workload(
        ALL_WORKLOADS[workload].config(), mech, WARMUP, MEASURED, obs=obs
    )
    requests = [
        [r.class_name, r.request_id, r.instructions, r.cycles]
        for r in result.requests
    ]
    out = {
        "counters": result.counters.as_dict(),
        "requests": len(requests),
        "requests_sha256": hashlib.sha256(
            json.dumps(requests).encode("utf-8")
        ).hexdigest(),
        "unmatched_marks": result.unmatched_marks,
    }
    if mech is not None:
        out["mechanism"] = asdict(mech.stats)
        out["abtb"] = {
            name: getattr(mech.abtb, name)
            for name in ("lookups", "hits", "inserts", "evictions", "flushes")
        }
        out["bloom"] = {
            name: getattr(mech.bloom, name) for name in ("adds", "queries", "hits")
        }
    return out


def _profile(profiler) -> dict:
    """Digest of the per-call-site trampoline profile."""
    sites = [asdict(s) for s in sorted(profiler.sites.values(), key=lambda s: s.site_pc)]
    return {
        "sites": len(sites),
        "calls": sum(s["executed"] + s["skipped"] for s in sites),
        "sites_sha256": hashlib.sha256(json.dumps(sites).encode("utf-8")).hexdigest(),
    }


def _fixture(workload: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{workload}.json").read_text())


CASES = [(w, c) for w in sorted(ALL_WORKLOADS) for c in CONFIGS]


@pytest.mark.parametrize("workload,config", CASES)
def test_golden_plain(workload, config):
    expected = _fixture(workload)[config]
    expected.pop("profile")
    assert _capture(workload, CONFIGS[config]) == expected


@pytest.mark.parametrize("workload,config", CASES)
def test_golden_under_obs(workload, config):
    obs = Observability(profile=True, sample_every=OBS_SAMPLE_EVERY)
    got = _capture(workload, CONFIGS[config], obs=obs)
    got["profile"] = _profile(obs.profiler)
    assert got == _fixture(workload)[config]
    # The session observed the run it did not perturb.
    assert obs.samplers and all(s.samples_taken for s in obs.samplers)


def write_fixtures() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in sorted(ALL_WORKLOADS):
        payload = {}
        for name, abtb in CONFIGS.items():
            obs = Observability(profile=True, sample_every=OBS_SAMPLE_EVERY)
            payload[name] = _capture(workload, abtb)
            if _capture(workload, abtb, obs=obs) != payload[name]:
                raise SystemExit(f"{workload}/{name}: obs run differs from plain run")
            payload[name]["profile"] = _profile(obs.profiler)
        path = GOLDEN_DIR / f"{workload}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    write_fixtures()
