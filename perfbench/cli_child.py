"""Run the latmat command line under the benchmark's span wrappers.

    python3 perfbench/cli_child.py <latmat arguments...>

Prints the command's output, then one line starting with SPANS_MARKER that
holds the recorded spans as JSON, and exits with the command's exit code.
Traced cli-exact ops run this in place of `python3 -m latmat.cli`.
"""

import json
import sys

from setup_probe import import_latmat
from spans import Tracer

SPANS_MARKER = "#perfbench-spans "


def main(argv) -> int:
    tracer = Tracer()
    idx = tracer.begin("cli.import", layer="import")
    import_latmat()
    import latmat.cli

    tracer.end(idx)
    tracer.install()
    try:
        code = latmat.cli.run(argv)
    finally:
        tracer.uninstall()
    sys.stdout.write(SPANS_MARKER + json.dumps(tracer.spans) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
