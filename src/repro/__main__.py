"""``python -m repro`` entry point."""

from time import perf_counter

#: Clock reading as this module starts, before the CLI is imported:
#: ``--stats`` reports the time from here to the CLI's start as the
#: ``cli.import`` phase.
ENTERED = perf_counter()

import sys  # noqa: E402

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
