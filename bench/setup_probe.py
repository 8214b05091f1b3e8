"""Set-up probe: a fresh interpreter imports bitension, builds the jet tables
and makes one 1-point call per chart of a workload.

    python bench/setup_probe.py SRC_DIR OUTPUT_PATH '[["verify", ...], ...]'

The caller times the whole process.  Exits 0 when every call exited 0 or 1
(a verdict was reached), 1 otherwise.
"""

import json
import sys


def main() -> int:
    src, output, calls = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    sys.path.insert(0, src)
    from bitension import cli

    for argv in calls:
        code = cli.main(argv + ["--output", output])
        if code not in (0, 1):
            print(f"set-up call {argv} exited {code}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
