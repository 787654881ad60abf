"""Run the napx command line: ``python -m napx ARGS``."""

from .cli import console_entry

console_entry()
