"""Run the napx command line: ``python -m napx ARGS`` or ``napx ARGS``."""

import sys


def run() -> None:
    """Load the command line and run it. Loading it imports numpy and the
    solver; running out of memory there exits 3 with one error line."""
    try:
        from .cli import console_entry
    except MemoryError:     # it carries no text of its own
        print("error: out of memory while loading napx", file=sys.stderr)
        sys.exit(3)
    console_entry()


if __name__ == "__main__":
    run()
