"""Set-up of one benchmark run: start Python, import orthoate, write the inputs.

``run.py`` runs this as a child process several times and times each
run from the outside, so the set-up time covers interpreter start,
import and input generation as a user of the CLI pays them.

Usage, from the repository root:

    python3 perfbench/make_inputs.py <workload> <seed> <work dir>
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv) -> int:
    name, seed, work = argv
    sys.path.insert(0, str(Path.cwd() / "src"))
    import orthoate.cli

    from workloads import WORKLOADS

    WORKLOADS[name].write_inputs(Path(work), int(seed), orthoate.cli.main)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
