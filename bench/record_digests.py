"""Record the report digest of every request of the default seed into digests.json.

    python3 bench/record_digests.py

Each request of each workload runs once; a report is recorded only after it
passes its independent check.  Run it again only when a change is meant to
alter report bytes, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    digests = {}
    for workload in workloads.WORKLOADS:
        workdir = run.OUT_DIR / f"digests-{workload}"
        try:
            cli, requests = run.setup(workload, run.DEFAULT_SEED, workdir)
            runner = run.Runner(cli, requests)
            runner.round()
            failed, reasons = runner.verify({})
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if failed:
            print("\n".join(reasons), file=sys.stderr)
            return 1
        for req, (code, data, _, _) in zip(requests, runner.first):
            digests[req.key] = f"{code}:{workloads.digest(data or b'')}"
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
