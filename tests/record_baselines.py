"""Record regression baselines for the canonical demonstration runs.

Run once (python tests/record_baselines.py) and commit the outputs; the
acceptance suite replays the same configurations and compares against these
files.  The stored curves are first-run references, not external ground
truth, except the negativity columns of pod_baseline.csv: those are
rewritten from a 50-digit computation by reference_pod_negativity.py, which
must be run again after this script.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from helpers import exclusivity_scenario, pod_scenario  # noqa: E402

from qbm_structures.experiments import run_exclusivity, run_pod  # noqa: E402

DATA = os.path.join(os.path.dirname(__file__), "data")


def main():
    os.makedirs(DATA, exist_ok=True)

    rep = run_pod(pod_scenario())
    rows = np.column_stack([rep.times, rep.purity_1, rep.purity_sp, rep.neg_12, rep.neg_spep])
    path = os.path.join(DATA, "pod_baseline.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,purity_1,purity_Sp,neg_12,neg_SpEp\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    print(f"wrote {path}: min purity_1 {rep.purity_1.min():.4g}, min purity_Sp {rep.purity_sp.min():.4g}")

    ex = run_exclusivity(exclusivity_scenario())
    path = os.path.join(DATA, "exclusivity_baseline.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,neg_SpEp_branch,excluding\n")
        for t, v, f in zip(ex.times, ex.neg_spep, ex.excluding.astype(float)):
            fh.write(f"{t:.17g},{v:.17g},{f:.17g}\n")
    print(f"wrote {path}: flagged fraction {ex.flagged_fraction:.4f}")


if __name__ == "__main__":
    main()
