"""``python -m tests.reference <repro arguments>``: the CLI on the reference path.

Runs :func:`repro.cli.main` under :func:`tests.reference.patched`, e.g.

    python -m tests.reference run all --scale small --jobs 1

Pool workers are forked so they inherit the installed references.
"""

import multiprocessing
import sys

from repro.cli import main

from . import patched

if __name__ == "__main__":
    multiprocessing.set_start_method("fork")
    with patched():
        sys.exit(main(sys.argv[1:]))
