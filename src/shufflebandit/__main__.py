"""`python -m shufflebandit ...` runs the command line of cli.py."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
