"""``python -m embsformer``: the command-line interface of `embsformer.cli`."""

import sys

from embsformer.cli import main

if __name__ == "__main__":
    sys.exit(main())
