"""Write the reference analytic cells of the sweep workloads.

Run from the root of a checkout: python3 perfbench/make_reference.py

The analytic column depends on neither the seed nor the trial count, so the
sweeps run here with 100 trials. Writes ``reference/<kind>.csv`` (snr_db,
scheme, analytic) and ``reference/PROVENANCE.json``.
"""

import csv
import json
import sys
import tempfile
from pathlib import Path

from check import REFERENCE_DIR
from run import SRC, WORK, WORKLOADS, environment

sys.path.insert(0, str(SRC))

from ris2x2 import cli  # noqa: E402


def main():
    made = {}
    WORK.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        if workload.kind == "verify":
            continue
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            argv = workload.argv(1729, tmp) + ["--trials", "100"]
            if cli.main(argv) != 0:
                raise SystemExit(f"{workload.name}: ris2x2 {' '.join(argv)} failed")
            with open(Path(tmp) / f"{workload.kind}.csv", newline="") as fh:
                rows = [(r["snr_db"], r["scheme"], r["analytic"]) for r in csv.DictReader(fh)]
        with open(REFERENCE_DIR / f"{workload.kind}.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["snr_db", "scheme", "analytic"])
            writer.writerows(rows)
        made[workload.kind] = ["ris2x2"] + workload.argv(1729, "<tmp>") + ["--trials", "100"]
    env = environment(1729)
    provenance = {
        "made_by": "python3 perfbench/make_reference.py",
        "commit": env["commit"],
        "source_sha256": env["source_sha256"],
        "python": env["python"],
        "numpy": env["numpy"],
        "scipy": env["scipy"],
        "argv": made,
    }
    (REFERENCE_DIR / "PROVENANCE.json").write_text(json.dumps(provenance, indent=2) + "\n")


if __name__ == "__main__":
    main()
