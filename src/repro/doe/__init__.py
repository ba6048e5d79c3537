"""Design-of-experiments sampling.

The paper generates its training and testing data with *full
orthogonal-hypercube DOE sampling*: 243 design points over 13 design
variables, each varied over three levels around the nominal operating point
with a relative step ``dx`` (0.10 for training, 0.03 for testing).

This package implements the pieces needed to reproduce that:

* :func:`~repro.doe.orthogonal.orthogonal_array` -- strength-2 orthogonal
  arrays over a prime number of levels built from linear codes over GF(q)
  (e.g. OA(243, 13, 3) as used by the paper);
* :func:`~repro.doe.orthogonal.orthogonal_hypercube` -- the paper's sampling
  plan: an orthogonal array mapped onto the hypercube of level indices;
* :func:`~repro.doe.sampling.centered_levels` -- level indices as symmetric
  integers around zero;
* :func:`~repro.doe.sampling.scale_design` -- map level indices onto physical
  values ``nominal * (1 + dx * level)`` with ``level in {-1, 0, +1}``;
* :class:`~repro.doe.sampling.DoePlan` -- a convenience object bundling the
  design matrix with variable names and nominal values.
"""

from repro.doe.orthogonal import orthogonal_array, orthogonal_hypercube
from repro.doe.sampling import DoePlan, centered_levels, scale_design

__all__ = [
    "orthogonal_array",
    "orthogonal_hypercube",
    "DoePlan",
    "centered_levels",
    "scale_design",
]
