"""``python -m polygas ...``: the same command line as the ``polygas`` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
