"""`python -m phasebal`: the same command line as the `phasebal` script."""

from .cli import main

# Guarded: a sweep worker started by spawn imports the main module again.
if __name__ == "__main__":
    raise SystemExit(main())
