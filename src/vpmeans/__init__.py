"""de la Vallee Poussin means on the unit sphere S^{d-1}, d >= 3.

Numerical library for the smoothing means V_n built from the kernel
cos(t/2)^(2n)/I_{n,d}, the spherical translation mean S_theta, the modulus of
smoothness, and a K-functional estimate, together with verification suites
for the computable identities relating them (multiplier form, kernel moment
scalings, the second-order expansion of the means, and the two-sided
equivalence between operator error and modulus at the scale n^(-1/2)).
"""

from .function_space import (GridFunction, ZonalProfile, ZonalSpectral,
                             corpus_ids, lp_norm_grid, lp_norm_maxima,
                             lp_norm_zonal, lp_norms_batch, make_corpus,
                             surface_area, zonal_project, zonal_synthesis)
from .kernel import (alpha_voronovskaya, kernel_norm_constant, lemma_integral,
                     multiplier_sequence, multiplier_via_quadrature, multiplier_weight,
                     vpm_kernel_eval)
from .operators import (means_columns, translate_direct, translate_spectral,
                        vpm_grid, vpm_means, zonal_point_function)
from .quadrature import (ConvergenceError, QuadratureRule, SphereGrid, gauss_legendre,
                         integrate_theta, sphere_grid)
from .smoothness import k_functional_estimate, modulus, modulus_many
from .special import q_envelope, q_table

__version__ = "0.1.0"
