"""``python -m archpi``: the ``archpi`` command line."""

import sys

from .cli import main

sys.exit(main())
