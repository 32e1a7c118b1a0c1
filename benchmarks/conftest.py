"""Shared by the regenerators of the paper's listings, Table 3, sampling
appendix and ablations — none runs a campaign (Table 4/5/6 and Figure 4/5
are ``refine-db report`` over a results store, ``make paper``).  Rendered
artifacts are written to ``results/bench_artifacts/`` and printed."""

from __future__ import annotations

from pathlib import Path

ARTIFACT_DIR = Path(__file__).resolve().parent.parent / "results" / "bench_artifacts"


def emit_artifact(name: str, text: str) -> None:
    """Write a rendered artifact to disk and echo it."""
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    path = ARTIFACT_DIR / name
    path.write_text(text + "\n")
    print(f"\n[artifact -> {path}]")
    print(text)
