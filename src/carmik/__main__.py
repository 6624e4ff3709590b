"""``python -m carmik``: the same command line as the ``carmik`` script."""

from .cli import console_entry

if __name__ == "__main__":
    console_entry()
