"""``python -m ucabeam``: the same command line as the ``ucabeam`` script."""

import sys

from .xpcli import main

sys.exit(main())
