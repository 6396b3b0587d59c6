"""Write reference/patient_scores.csv: the three scores of every admissible
case of the shipped schema under the default configuration.

patient-cli compares each score-patient output against this table, within
checks.SCORE_TOLERANCE.  Regenerate it only when the expected scores change
on purpose, and say so where the change is recorded:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

from checks import REFERENCE, SCORE_KEYS
from workloads import ROOT


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from emprob.pipeline import PipelineConfig, prepare

    result = prepare(PipelineConfig())
    table = result.table
    columns = (table.score_gmm_cdf, table.score_kde_cdf, table.score_posterior)
    REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    with open(REFERENCE, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(("answers", *SCORE_KEYS))
        for i in range(len(table)):
            answers = " ".join(sorted(table.case_set.case(i).true_answers))
            writer.writerow((answers, *(repr(float(c[i])) for c in columns)))
    print(f"wrote {REFERENCE} ({len(table)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
