"""Run one copbands CLI command as ``python -m copbands`` does, under the
speed probe of calibrate.py.

    python3 bench/cli_child.py WINDOWS_JSON SEGMENT_S COMMAND [ARGS...]

The probe starts once numpy is imported, the one module its kernel needs,
which copbands imports too. From then on, through the import of
copbands and the command, an interval timer adds a probe window every
SEGMENT_S seconds of wall time, and one more when the command returns. The
windows go to WINDOWS_JSON; the exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main(argv):
    windows_path, segment_s, command = argv[0], float(argv[1]), argv[2:]
    sys.path.insert(0, str(BENCH.parent / "src"))
    import numpy  # noqa: F401  (the probe's one import, which copbands needs too)

    start = time.perf_counter()
    from calibrate import probing

    with probing(segment_s, start) as probe:
        import copbands.cli

        code = copbands.cli.main(command)
    Path(windows_path).write_text(json.dumps(probe.windows), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
