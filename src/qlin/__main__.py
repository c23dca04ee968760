"""`python -m qlin ...` runs the command-line front end, as the `qlin` script does."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
