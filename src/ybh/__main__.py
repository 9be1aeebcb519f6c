"""`python -m ybh`: the `ybh` command line."""

import sys

from . import cli

sys.exit(cli.main())
