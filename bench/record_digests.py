"""Record the stdout digest of every catalogue op into digests.json.

    python3 bench/record_digests.py [workload ...]

Run from the root of a checkout.  Every op must exit 0; the script stops
with exit 1 on the first that does not.  Re-record only when a change is
meant to alter the output bytes: the benchmark fails every op whose stdout
differs from its recorded digest.
"""

from __future__ import annotations

import json
import sys
import time
from hashlib import sha256
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from worker import DIGESTS, op_key, run_op  # noqa: E402


def record(workload: str, rankone_cli) -> dict:
    ops = workloads.catalogue(workload)
    workloads.write_weights(ops)
    out = {}
    t = time.perf_counter()
    for op in ops:
        code, text, err, _ = run_op(rankone_cli, op)
        if code != 0:
            sys.exit(f"{op_key(op)}: exit {code}: {err.strip()}")
        out[op_key(op)] = sha256(text.encode()).hexdigest()
    print(f"{workload}: {len(ops)} ops in {time.perf_counter() - t:.1f} s")
    return out


def main(argv) -> int:
    sys.path.insert(0, str(Path("src").resolve()))
    import rankone.cli

    names = argv or list(workloads.WORKLOADS)
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for name in names:
        table[name] = record(name, rankone.cli)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
