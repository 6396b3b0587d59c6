"""One set-up as a user pays it: start Python, import emprob and write the
workload's generated inputs.  run_bench.py times this script from spawn to
exit several times per run and reports the median as setup_s.

    python3 bench/setup_probe.py WORKLOAD SEED DEST
"""

import sys
from pathlib import Path

from workloads import ROOT, write_inputs

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    import emprob  # noqa: F401  (the import is part of what is timed)

    workload, seed, dest = sys.argv[1:4]
    write_inputs(workload, int(seed), Path(dest))
