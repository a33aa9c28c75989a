"""``python -m fracstab``: the command-line front end, run as ``fracstab``."""

from . import cli

if __name__ == "__main__":
    raise SystemExit(cli.main())
