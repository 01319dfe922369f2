"""Stability of pairs in geometric invariant theory, end to end.

Subpackages by concern:

- :mod:`stablepairs.poly` -- exact/float homogeneous polynomials, group
  action by substitution; exact Sylvester resultants, binary discriminants
  and signed maximal minors, over scalars or polynomials.
- :mod:`stablepairs.weights` -- torus supports, weight polytopes, 1-PSG
  weights, exact containment with witnesses.
- :mod:`stablepairs.pairs` -- (semi)stability of pairs: torus tests,
  randomized probes, Kempf-Ness descent, tensored stable pairs.
- :mod:`stablepairs.forms` -- Chow forms and Hurwitz forms of rational
  curves and hypersurfaces; the normalized variety pair.
- :mod:`stablepairs.norms` -- L^p and Mahler norms on projective space,
  the Arestov/Jensen inequality suite, the conformal factor.
- :mod:`stablepairs.energy` -- orbit distances, algebraic K-energy and
  Aubin functionals, the coercivity expression, asymptotic reports.
- :mod:`stablepairs.oracle` -- independent differential-geometric
  quadrature oracle for curves.
- :mod:`stablepairs.cli` -- JSON-in/JSON-out command-line interface.
"""

from .errors import (
    DegenerateCurveError,
    DimensionError,
    ExactnessError,
    NonConvergenceError,
    PreconditionError,
    SchemaError,
    StablePairsError,
)
from .poly import (
    GroupElement,
    HomogeneousPolynomial,
    OnePSG,
    VariableShape,
    act,
    binary_discriminant,
    evaluate,
    maximal_minors,
    sylvester_resultant,
)
from .weights import (
    LatticePolytope,
    TensorVector,
    WeightCharacter,
    act_tensor,
    contains,
    minkowski_sum,
    psg_weight,
    rep_degree,
    scale,
    standard_simplex,
    support,
    weight_polytope,
)

__version__ = "0.1.0"
