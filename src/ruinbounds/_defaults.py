"""Run defaults of the reference tables, shared with the CLI.

They live apart from ``reference`` so that the CLI can read them without
loading numpy.
"""

DEFAULT_SEED = 20250801
DEFAULT_REPLICATES = 3000
