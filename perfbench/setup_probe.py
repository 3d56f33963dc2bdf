"""Import latmat from this checkout; as a script, the probe behind setup_s.

    python3 perfbench/setup_probe.py <workload> <seed>

times `import latmat` in a fresh interpreter, generates the workload's ops
from the seed, and prints {"import_ms": ...}.  The caller times the whole
process, interpreter start included.
"""

import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def import_latmat():
    """Import latmat from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "latmat", "__init__.py")):
        sys.exit(f"error: no latmat sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import latmat

    if os.path.dirname(os.path.dirname(os.path.abspath(latmat.__file__))) != SRC:
        sys.exit(f"error: imported latmat from {latmat.__file__}, not from {SRC}")
    return latmat


def main(argv) -> int:
    workload_name, seed = argv
    t0 = time.perf_counter()
    import_latmat()
    import_ms = 1e3 * (time.perf_counter() - t0)
    import workloads

    workloads.make_rounds(workloads.WORKLOADS[workload_name], int(seed))
    print(json.dumps({"import_ms": import_ms}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
