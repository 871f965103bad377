"""Record bench/reference.json from the program as it is now.

    python3 bench/record_reference.py

The reference holds the final diagnostics norms of the field workloads on
the inputs of ``workloads.REFERENCE_SEED`` and the verdict column of the
analysis atlas.  Re-record it only when a change is meant to alter these
results, and say so in the change.
"""

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402


def main() -> int:
    work = workloads.ROOT / ".bench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reference = {
        name: workloads.create(name, workloads.REFERENCE_SEED, work, None).record_reference()
        for name in workloads.NAMES
    }
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
