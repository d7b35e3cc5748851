"""``python -m orbitposet``: the command line, also from a checkout that is not installed."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
