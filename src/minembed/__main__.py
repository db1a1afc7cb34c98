"""``python -m minembed`` and the installed ``minembed`` command."""

import sys


def main() -> None:
    """Loads the command line and runs it. Running out of memory while loading it, in
    ``import numpy`` say, exits 2 with E_OUT_OF_MEMORY, as it does inside a command."""
    try:
        from . import cli
    except MemoryError:
        pass
    else:
        cli.main()
        return
    # Reported past the handler, so the failed import's frames are let go first.
    command = sys.argv[1] if len(sys.argv) > 1 and not sys.argv[1].startswith("-") else "minembed"
    print(f"E_OUT_OF_MEMORY: {command} ran out of memory", file=sys.stderr)
    raise SystemExit(2)


if __name__ == "__main__":
    main()
