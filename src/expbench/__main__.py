"""``python -m expbench``: the command line of :mod:`expbench.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
