"""``python -m circuitfan``: the command-line interface of ``circuitfan.cli``."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
