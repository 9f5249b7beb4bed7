"""``python -m wrep``: the command line, with its exit status."""

import sys

from . import cli

sys.exit(cli.main())
