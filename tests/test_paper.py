"""The published numbers are the code's (slow: CI job ``paper``, ``make paper``).

The paper's whole matrix — 14 programs x 3 tools x 1068 runs — at both
published base seeds, run the way a user would: ``refine-campaign --submit
--watch`` to a service (2 workers, durable queue, results DB), read back
with ``refine-db report``.  The ``report.json`` that writes must equal the
committed ``results/full_campaign*.json`` outside ``provenance``: every
cell's counts, candidates, cycles and record digests, every chi-squared
verdict, every ratio.

A PR that moves a published number on purpose copies the ``report.json``
this test names over the published file, runs ``make experiments-md`` and
says in CHANGES.md which cells moved and why.
"""

import json
import time
from pathlib import Path

import pytest

from repro.campaign import PAPER_SAMPLES
from repro.cli import campaign_main
from repro.resultsdb.cli import main as db_main
from repro.service import LocalService

pytestmark = pytest.mark.slow

RESULTS = Path(__file__).resolve().parent.parent / "results"
PUBLISHED = {"full_campaign.json": 0x5EED0EF1, "full_campaign_seed2.json": 0xA11CE}


@pytest.mark.parametrize("name", PUBLISHED)
def test_service_run_reproduces_the_published_file(name, tmp_path, capsys):
    store = tmp_path / "results.sqlite"
    t0 = time.perf_counter()
    with LocalService(
        workers=2, queue_path=tmp_path / "queue.sqlite", db_path=store,
        checkpoint_root=tmp_path / "ckpt",
    ) as svc:
        assert campaign_main([
            "--submit", f"{svc.host}:{svc.port}", "--watch", "-q",
            "-n", str(PAPER_SAMPLES), "--seed", str(PUBLISHED[name]),
        ]) == 0
        wall = time.perf_counter() - t0
        svc.client.drain(grace_s=5.0)
        svc.coordinator.serve_until_stopped(poll=0.02)
    assert db_main(["report", str(store), str(tmp_path / "report")]) == 0
    capsys.readouterr()

    new = json.loads((tmp_path / "report" / "report.json").read_text())
    old = json.loads((RESULTS / name).read_text())
    experiments = new["n"] * len(new["results"])
    with capsys.disabled():
        print(
            f"\n{name}: {experiments} experiments through the service in "
            f"{wall:.0f} s = {experiments / wall:.0f} exps/s"
        )
    moved = sorted(
        key for key in {*new["results"], *old["results"]}
        if new["results"].get(key) != old["results"].get(key)
    )
    hint = f"regenerated file: {tmp_path / 'report' / 'report.json'}"
    assert not moved, f"{len(moved)} cell(s) moved: {moved}; {hint}"
    new.pop("provenance")
    old.pop("provenance")
    assert new == old, hint
