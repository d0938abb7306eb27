"""wittenlab: a numerical laboratory for Witten-Novikov deformation.

Subpackages by topic:

- :mod:`wittenlab.spectral`: graded matrix complexes, Laplacians, heat
  supertraces restricted to the small or large spectrum, spectral zeta
  sums.
- :mod:`wittenlab.model`: the harmonic-oscillator model of a nondegenerate
  zero, its exact spectrum, ground states, cutoff normalization, and a
  finite-difference validation harness.
- :mod:`wittenlab.circle`: circle systems built from one callable eta, zeta
  invariants and their small/large split, their closed-form continuum
  value, the exact-form trace identity,
  descending arcs read off the instanton graph, the transgression pullback
  (its sign fixed by algebra), cell integration, and the zeta invariant of
  an exact product torus from one SVD per factor (the Kronecker product
  complex is a test oracle).
- :mod:`wittenlab.morse`: perturbed Morse complexes on instanton graphs,
  rank recursions, tightness, leading parts, eigenvalue windows, limit
  invariants, and the prescription equation.
- :mod:`wittenlab.weight_prescription`: reweighting descent graphs to
  prescribed per-index escape costs, with independently verified
  certificates.
- :mod:`wittenlab.zdist`: tempered-distribution pairings of heat
  supertraces against Gaussian test functions, by a 65-node Gauss-Kronrod
  rule whose embedded Gauss rule certifies each value with an error
  estimate.  The two integration orders
  coincide by construction: per eigenpair the heat-time integral telescopes
  to the regularized trace, so both take the zeta invariant at each
  frequency node.
"""

from .spectral import (
    GradedMatrixComplex,
    GradedLaplacianFamily,
    assemble_laplacians,
    eigendecompose,
    heat_supertrace,
    zeta_via_spectrum,
    betti_numbers,
)
from .model import (
    MorseModelSpec,
    model_spectrum,
    model_ground_state,
    cutoff_normalization,
    numeric_model_check,
)
from .circle import (
    CircleWittenSystem,
    make_standard_profile,
    assemble_circle_complex,
    betti_novikov,
    zeta_invariant,
    exact_identity_residual,
    instanton_data_circle,
    circle_graph,
    mathai_quillen_1d,
    phi_map_circle,
    spectral_gap_report,
    sobolev_constant_probe,
)
from .morse import (
    InstantonGraph,
    build_differential,
    rank_sequence,
    hodge_ranks_numeric,
    analyze_ranks,
    tightness_check,
    leading_complex,
    small_spectrum_window,
    z_invariants,
    projection_law_check,
    prescribe_tau,
    graph_tensor,
)
from .weight_prescription import (
    PrescriptionProblem,
    choose_constants,
    initialize_weights,
    prescribe,
    verify_prescription,
)
from .zdist import (
    GaussianTestFunction,
    pair_inner_first,
    pair_outer_first,
    delta_limit_report,
)

__version__ = "0.1.0"
