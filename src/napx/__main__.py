"""Run the napx command line: ``python -m napx ARGS``."""

import sys

from .cli import main

sys.exit(main(sys.argv[1:]))
