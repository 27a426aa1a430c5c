"""Integer sieves, finite quotient enumeration and graph symmetry checks.

The package is organised around five parts:

* :mod:`fqlab.numtheory` -- divisor-class sieves and natural-density series.
* :mod:`fqlab.permgroup` -- small permutation groups by exhaustive closure.
* :mod:`fqlab.fpgroup`   -- finitely presented groups: the normal low-index
  subgroup search, abelian invariants and the density classifier.
* :mod:`fqlab.graphs`    -- two parametric graph families plus transitivity
  reports and local-action analysis.
* :mod:`fqlab.cli`       -- the ``fqlab`` command line front end.

Everything is deterministic: no randomness, fixed iteration orders, and
byte-stable CSV output.
"""

__version__ = "0.1.0"

from .errors import (
    FqlabError,
    ResourceBudgetError,
    SearchBudgetError,
    GroupTooLargeError,
    InternalInvariantError,
    InputSyntaxError,
)

__all__ = [
    "__version__",
    "FqlabError",
    "ResourceBudgetError",
    "SearchBudgetError",
    "GroupTooLargeError",
    "InternalInvariantError",
    "InputSyntaxError",
]
