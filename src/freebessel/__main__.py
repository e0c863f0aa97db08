"""``python -m freebessel``: the command line, also from a checkout with ``src`` on the path."""

import sys

from .cli import main

sys.exit(main())
