"""``python -m gridcycles``: the command line of :mod:`gridcycles.cli`."""

import sys

from gridcycles.cli import main

sys.exit(main())
