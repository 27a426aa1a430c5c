"""Integer sieves, finite quotient enumeration and graph symmetry checks.

The package's modules, as README lists them:

* :mod:`fqlab.numtheory` -- divisor-class sieves and natural-density series;
  :mod:`fqlab.pointwise` -- their pointwise membership oracle.
* :mod:`fqlab.orbit` -- breadth-first reach, its spanning tree and the
  regularity certificate; :mod:`fqlab.permgroup` -- permutation groups
  from generating sets.
* :mod:`fqlab.fpgroup` -- finitely presented groups: the normal low-index
  subgroup search, abelian invariants and the density classifier.
* :mod:`fqlab.graphs` -- two parametric graph families plus transitivity
  reports and local-action analysis; :mod:`fqlab.census` -- graph orders
  certified by quotient searches.
* :mod:`fqlab.lattice`, :mod:`fqlab.sweeps`, :mod:`fqlab.catalog` -- element
  indices, normal subgroups and quotients; the verification sweeps; fixture
  groups in cycle notation.
* :mod:`fqlab.budgets` -- size budgets; :mod:`fqlab.cli` -- the ``fqlab``
  command line front end.

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
