"""Record the expected sha256 of every output the benchmark can request.

    python3 perfbench/make_digests.py

Runs every request of every workload's pools once, without a cache, checks
each output with checks.py and writes perfbench/digests.json.  The list is
recorded from the program as it is; a later change that alters any output
byte, in any format, then shows up as a failed request in the benchmark
until the list is made anew on purpose (JSON and CSV output are promised to
be byte-stable).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import checks
import workloads
from run import BENCH_DIR, WORK_DIR, Child


def main() -> int:
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir(parents=True)
    os.chdir(WORK_DIR)
    child = Child()
    digests = {}
    bad = 0
    for workload in workloads.WORKLOADS:
        requests = workloads.all_requests(workload)
        workloads.write_fixtures(requests, WORK_DIR)
        for request in requests:
            wall, _, _, code = child.run(["-m", "fiberdt", *request.argv])
            data = child.stdout.read_bytes()
            try:
                if code != 0:
                    raise checks.CheckError(f"exit status {code}")
                checks.check_output(data.decode(errors="replace"), request.spec)
            except checks.CheckError as exc:
                print(f"FAILED {request.key}: {exc}", file=sys.stderr)
                bad += 1
                continue
            digests[request.key] = hashlib.sha256(data).hexdigest()
            print(f"{wall:7.3f} s  {request.key}", file=sys.stderr)
    if bad:
        return 1
    (BENCH_DIR / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
