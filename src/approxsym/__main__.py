"""``python -m approxsym``: the command-line interface of ``approxsym.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
