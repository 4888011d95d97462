"""`python -m qfcodes`: the command line of qfcodes.cli."""
from .cli import main

raise SystemExit(main())
