"""Allow ``python -m spincorr`` to run the command-line interface."""

import sys

from .cli import main

sys.exit(main())
