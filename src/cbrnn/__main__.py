"""``python -m cbrnn``: the command line the ``cbrnn`` script runs."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
