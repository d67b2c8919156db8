"""``python -m dmlkit.cli``: the ``dmlkit`` command without installing it."""

import sys

from .main import main

if __name__ == "__main__":
    sys.exit(main())
