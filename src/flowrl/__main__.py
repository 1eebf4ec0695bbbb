"""`python -m flowrl`: the command-line front end of `flowrl.cli`."""

import sys

from .cli import main

sys.exit(main())
