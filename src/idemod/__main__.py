"""``python -m idemod``: the command-line front end of ``idemod.cli``."""
import sys

from .cli import main

sys.exit(main())
