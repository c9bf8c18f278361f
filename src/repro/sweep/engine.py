"""Sweep execution: expand, (re)run, analyze, report.

One sweep owns one output directory:

```
out/
  spec.json        the expanded SweepSpec (resume guard: must not change)
  checkpoint.json  campaign checkpoint (integrity-enveloped, incremental)
  trace-cache/     content-addressed trace bundles, shared by every point
  machine-cache/   warm machine checkpoints (base machines shared per
                   CPU geometry; enhanced machines per configuration)
  analysis/        points / pareto / sensitivity / best / summary JSON
                   + the self-contained HTML report
```

Execution rides the campaign runner end to end: points become
:class:`~repro.experiments.runner.CampaignPoint` tasks, ``jobs`` shards
them over local lease workers, the checkpoint is written incrementally as
points land, and a rerun of the same output directory resumes — a fully
completed sweep re-executes *zero* points and goes straight to
analysis.  Trace generation is deduplicated by construction: the trace
key covers only (workload recipe, windows), so all points of one
workload share one stored bundle, prefilled before the fan-out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigError
from repro.experiments.runner import CampaignResult, _load_checkpoint, run_campaign
from repro.sweep.analysis import analyze_sweep
from repro.sweep.report import write_sweep_report
from repro.sweep.spec import SweepSpec


@dataclass
class SweepResult:
    """Everything one engine invocation produced."""

    spec: SweepSpec
    out_dir: Path
    campaign: CampaignResult
    analysis: dict
    summary: dict
    #: Grid combinations dropped by ``skip_invalid`` during expansion.
    dropped: int = 0

    @property
    def ok(self) -> bool:
        return self.campaign.ok

    def render(self) -> str:
        s = self.summary
        lines = [
            f"sweep {self.spec.name}: {s['completed']}/{s['points']} point(s) "
            f"completed ({s['resumed']} resumed, {s['executed']} executed, "
            f"{s['quarantined']} quarantined)"
        ]
        cache = s.get("trace_cache") or {}
        lines.append(
            f"trace-cache: {cache.get('hits', 0)} hit(s), "
            f"{cache.get('misses', 0)} miss(es) "
            f"(hit rate {cache.get('hit_rate', 0.0):.1%})"
        )
        best = (self.analysis.get("best") or {}).get("overall")
        if best:
            assoc = best["abtb_ways"] or "full"
            lines.append(
                f"best: abtb={best['abtb_entries']}/{assoc}/{best['abtb_policy']} "
                f"bloom={best['bloom_bits']}x{best['bloom_hashes']} "
                f"btb={best['btb_entries']}x{best['btb_ways']} "
                f"gshare={best['gshare_entries']} "
                f"-> speedup {best['speedup']:.4f} "
                f"at {best['cost_bytes'] / 1024:.1f} KiB"
            )
        lines.append(
            f"pareto: {len(self.analysis.get('pareto', []))} frontier "
            f"configuration(s) of {len(self.analysis.get('configs', []))}"
        )
        lines.append(f"analysis: {self.out_dir / 'analysis'}")
        return "\n".join(lines)


def load_spec(out_dir: str | Path) -> SweepSpec:
    """The spec a sweep directory was created with."""
    spec_path = Path(out_dir) / "spec.json"
    if not spec_path.is_file():
        raise ConfigError(
            f"{spec_path} not found — not a sweep output directory "
            f"(run 'repro sweep run' first)"
        )
    return SweepSpec.load(spec_path)


def _pin_spec(spec: SweepSpec, out: Path) -> None:
    """Persist the spec, or verify it matches what the directory holds.

    A checkpoint is only meaningful against the exact grid that wrote
    it — resuming with a different spec would silently skip points whose
    keys happen to collide and re-run everything else, so a mismatch is
    an error, not a merge.
    """
    spec_path = out / "spec.json"
    payload = json.dumps(spec.to_dict(), indent=2, sort_keys=True)
    if spec_path.is_file():
        existing = SweepSpec.load(spec_path)
        if existing != spec:
            raise ConfigError(
                f"{out} already holds sweep {existing.name!r} with a "
                f"different spec; use a fresh --out directory (or delete "
                f"{spec_path}) to start a new sweep"
            )
        return
    spec_path.write_text(payload)


def _write_analysis(out: Path, analysis: dict, summary: dict) -> None:
    analysis_dir = out / "analysis"
    analysis_dir.mkdir(parents=True, exist_ok=True)
    for name, payload in (
        ("points", analysis["points"]),
        ("pareto", analysis["pareto"]),
        ("sensitivity", analysis["sensitivity"]),
        ("best", analysis["best"]),
        ("summary", summary),
    ):
        (analysis_dir / f"{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True)
        )
    write_sweep_report(analysis_dir / "report.html", analysis, summary)


def run_sweep(
    spec: SweepSpec | None,
    out_dir: str | Path,
    jobs: int = 1,
    recorder=None,
    bus=None,
) -> SweepResult:
    """Execute (or resume) a sweep into ``out_dir``.

    ``spec=None`` resumes whatever spec ``out_dir`` was created with.
    Completed points are skipped via the campaign checkpoint; everything
    else runs as leases, sharded when ``jobs > 1``, and a point whose
    failure budget is spent is quarantined.
    Analysis artifacts are (re)written on every invocation, so a resumed
    or even fully-cached run still refreshes ``analysis/``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if spec is None:
        spec = load_spec(out)
    _pin_spec(spec, out)
    points = spec.expand()
    dropped = spec.size() - len(points)
    if not points:
        raise ConfigError(f"sweep {spec.name!r} expanded to zero valid points")
    campaign = run_campaign(
        [],
        spec.scale(),
        points=[p.to_campaign_point() for p in points],
        checkpoint_path=out / "checkpoint.json",
        jobs=jobs,
        machine_cache_dir=out / "machine-cache",
        trace_cache_dir=out / "trace-cache",
        recorder=recorder,
        bus=bus,
        campaign_id=f"sweep:{spec.name}",
    )
    return _finish(spec, out, points, campaign, dropped)


def report_sweep(out_dir: str | Path, recorder=None) -> SweepResult:
    """Recompute ``analysis/`` from the checkpoint without executing.

    Useful mid-sweep (analysis over the points finished so far) and
    after the fact (tweaked analysis code over a finished sweep).
    """
    out = Path(out_dir)
    spec = load_spec(out)
    points = spec.expand()
    completed = _load_checkpoint(out / "checkpoint.json", recorder)
    campaign = CampaignResult(completed=dict(completed), resumed=len(completed))
    return _finish(spec, out, points, campaign, spec.size() - len(points))


def _finish(
    spec: SweepSpec,
    out: Path,
    points: list,
    campaign: CampaignResult,
    dropped: int,
) -> SweepResult:
    analysis = analyze_sweep(points, campaign.completed, spec.axis_values())
    cache = {"hits": 0, "misses": 0}
    cache.update(campaign.cache_stats)
    cache["hit_rate"] = campaign.trace_hit_rate
    summary = {
        "name": spec.name,
        "points": len(points),
        "dropped_invalid": dropped,
        "completed": len(campaign.completed),
        "quarantined": len(campaign.quarantined),
        "resumed": campaign.resumed,
        "executed": len(points) - campaign.resumed,
        "trace_cache": cache,
        "pareto_size": len(analysis["pareto"]),
    }
    _write_analysis(out, analysis, summary)
    return SweepResult(
        spec=spec,
        out_dir=out,
        campaign=campaign,
        analysis=analysis,
        summary=summary,
        dropped=dropped,
    )
