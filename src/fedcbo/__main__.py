"""``python -m fedcbo``: the same CLI as the ``fedcbo`` console script."""

import sys

from .cli import main

sys.exit(main())
