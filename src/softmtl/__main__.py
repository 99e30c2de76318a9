"""``python -m softmtl``: the ``softmtl`` command."""

import sys

from .cli import main

sys.exit(main())
