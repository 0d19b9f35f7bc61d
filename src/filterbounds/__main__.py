"""Run the command line front end: ``python -m filterbounds <command>``."""

import sys

from .cli import main

sys.exit(main())
