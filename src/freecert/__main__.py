"""`python -m freecert`: the same command line as the `freecert` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
