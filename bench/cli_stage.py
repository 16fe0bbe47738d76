"""Run one depthseg CLI command and write how long ``cli.main`` took.

    python3 bench/cli_stage.py SECONDS_FILE COMMAND [ARGS...]

Calls ``depthseg.cli.main`` with the remaining arguments, writes the call's
wall time in seconds to SECONDS_FILE and exits with the command's exit code.
The traced ``cli_pipeline`` run launches commands through this script to
measure process start: the child's wall time minus the ``cli.main`` call.
"""

import sys
import time
from pathlib import Path


def main() -> int:
    seconds_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from depthseg import cli
    start = time.perf_counter()
    code = cli.main(argv)
    Path(seconds_path).write_text(repr(time.perf_counter() - start))
    return code


if __name__ == "__main__":
    sys.exit(main())
