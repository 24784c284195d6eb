"""``python -m k3motive`` and the ``k3motive`` console script."""

import os
import sys

from .cli import main


def run() -> None:
    """``main()`` as the process: output to a closed pipe exits 2 (I/O
    failure) without a traceback."""
    try:
        try:
            sys.exit(main())
        finally:  # also after argparse's own exit, as for --help
            sys.stdout.flush()  # a closed pipe fails here, inside the guard
    except BrokenPipeError:
        # devnull, so the flush at shutdown cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(2)


if __name__ == "__main__":
    run()
