"""skeinlab: exact skein-module computations on a holed disk.

Subpackages cover exact q-series scalars, Chebyshev-style recursions,
noncommutative rewriting, diagram resolution on a holed disk, and
SL(2, C) character-variety numerics.
"""

__version__ = "0.1.0"


class InputError(ValueError):
    """Bad config, diagram or manifest input: the CLI prints it and exits 2."""
