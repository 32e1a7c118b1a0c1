#!/usr/bin/env python3
"""A three-tool accuracy study on HPCCG, exactly like the paper's Section 5:

1. run an FI campaign with LLFI, REFINE and PINFI on the same program;
2. plot the outcome distributions with confidence intervals (Figure 4);
3. chi-squared-test each tool against the PINFI baseline (Table 5);
4. compare campaign times (Figure 5).

Steps 2-4 are the repository's one renderer (``refine-db report``) over an
in-memory results store holding the campaign.

Sample count via REPRO_SAMPLES (default 150; the paper uses 1068).

The campaign is **checkpointed**: pass a directory via REPRO_CHECKPOINT_DIR
and each (workload, tool) cell persists its partial result there every few
experiments.  Kill this script mid-run and start it again — it resumes from
the checkpoints and the final counts are bit-identical to an uninterrupted
run (every experiment's seed is a pure function of its global index, so
resuming just skips the completed indices).
"""

import os

from repro.campaign import run_matrix
from repro.resultsdb import (
    ResultsDB,
    generated_blocks,
    ingest_result,
    render_markdown,
    report_data,
)
from repro.stats import margin_of_error
from repro.workloads import get_workload

N = int(os.environ.get("REPRO_SAMPLES", "150"))
#: e.g. REPRO_CHECKPOINT_DIR=/tmp/hpccg-ckpt -> kill + rerun to resume.
CHECKPOINT_DIR = os.environ.get("REPRO_CHECKPOINT_DIR")
WORKLOAD = "HPCCG-1.0"
TOOLS = ("LLFI", "REFINE", "PINFI")


def main() -> None:
    spec = get_workload(WORKLOAD)
    print(f"workload: {spec.name} — {spec.description}")
    print(f"input:    {spec.input_desc}")
    print(f"samples:  {N} per tool "
          f"(margin of error {margin_of_error(N) * 100:.1f}% at 95%)")
    if CHECKPOINT_DIR:
        print(f"checkpoints: {CHECKPOINT_DIR} (kill + rerun to resume)")
    print()

    matrix = run_matrix(
        {WORKLOAD: spec.source}, TOOLS, n=N,
        checkpoint_dir=CHECKPOINT_DIR, checkpoint_every=25,
    )

    with ResultsDB() as db:  # :memory:
        for result in matrix.values():
            ingest_result(db, result)
        blocks = generated_blocks(render_markdown(report_data(db)))
    for artifact in ("figure4", "table5", "figure5"):
        print(f"-- {artifact} --")
        print(blocks[artifact])

    print(
        "\nExpected shape (paper): LLFI differs from PINFI and runs a "
        "multiple slower;\nREFINE is statistically indistinguishable from "
        "PINFI at roughly its speed."
    )


if __name__ == "__main__":
    main()
