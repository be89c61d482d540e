"""Variable smoothing for weakly convex composite minimization over subspaces.

The solver minimizes h(x) + g(A x) over a linear subspace V, where h is
smooth, g is rho-weakly convex with an available proximal map, and A is
linear.  Each iteration takes a projected gradient step on a partial
Moreau-envelope smoothing of g with a slowly decreasing smoothing
parameter; see :mod:`pvsmooth.solver`.

Building blocks live in :mod:`pvsmooth.core` (function/operator interfaces,
envelopes), :mod:`pvsmooth.prox` (pointwise-supremum families and scalar
penalties), :mod:`pvsmooth.projections` (subspace and convex-set
projections), :mod:`pvsmooth.penalty` (the outer penalty continuation
loop), :mod:`pvsmooth.problems` (ready-made application instances), and
:mod:`pvsmooth.oracles` (slow independent references used for testing).
Each module's ``__all__`` is the one list of its public names; the package
re-exports every module but ``oracles`` and ``cli`` by star import.
"""

from .core import *
from .errors import *
from .penalty import *
from .problems import *
from .projections import *
from .prox import *
from .solver import *

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
