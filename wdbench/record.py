"""Record the output fingerprint of every pool entry of every workload.

    python3 wdbench/record.py

Writes wdbench/fingerprints.json.  Run it only at a commit whose outputs
are trusted: every later benchmark run counts a round whose fingerprint
differs from the recorded one as a failed operation.
"""

import json
import os
import sys

from run import FINGERPRINTS, ROOT, SRC, fresh_import
from workloads import OUT_DIR, WORKLOADS


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    recorded = {}
    for name, workload in WORKLOADS.items():
        prints = []
        for entry in range(workload.pool_size):
            wd = fresh_import()
            out = workload.run(wd, entry)
            fp = workload.fingerprint(out)
            attempted, failed = workload.verify(wd, entry, out, fp)
            if failed:
                print(f"{name}[{entry}]: {failed} of {attempted} checks failed", file=sys.stderr)
                return 1
            print(f"{name}[{entry}] {fp}")
            prints.append(fp)
        recorded[name] = prints
    with open(FINGERPRINTS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
