"""Exact desk-scale verification of stratified moduli of isotropic
subspace pairs over small finite fields and function fields."""

from .charts import (flat_lift, groebner, is_squarefree, isotropy_relations,
                     macaulay_member, reduce_poly, reduced_presentation,
                     substitution_check)
from .degenerations import (ClosurePoset, admissible_generization_pairs,
                            generization_lift, nonsmooth_witness)
from .errors import SplitModelError
from .frame import Frame, build_frame, orthogonal, pair
from .lattices import (CoweightLabel, LaurentLattice, admissible_set,
                       base_lattice, lattice_from_point, lattice_type,
                       phi_map, schubert_dimension, standard_lattice,
                       tau_fiber_check)
from .linalg import (Matrix, Subspace, intermediate_subspaces_iter,
                     smith_form_local, subspaces_iter)
from .points import (ModelPoint, StratumLabel, census, chart_point_eps,
                     chart_point_general, chart_point_local, invariants,
                     iter_validated_points, sample_eps_chart_point,
                     sample_general_chart_point, stratum_dimension,
                     validate)
from .rings import (DualNumbers, FunctionField, PolynomialRing, PrimeField,
                    SeriesRing)

__version__ = "0.1.0"

__all__ = [
    "ClosurePoset", "CoweightLabel", "DualNumbers", "Frame", "FunctionField",
    "LaurentLattice", "Matrix", "ModelPoint", "PolynomialRing", "PrimeField",
    "SeriesRing", "SplitModelError", "StratumLabel", "Subspace",
    "admissible_generization_pairs", "admissible_set", "base_lattice",
    "build_frame", "census", "chart_point_eps", "chart_point_general",
    "chart_point_local", "flat_lift", "generization_lift",
    "groebner", "intermediate_subspaces_iter", "invariants", "is_squarefree",
    "isotropy_relations", "iter_validated_points", "lattice_from_point", "lattice_type",
    "macaulay_member", "nonsmooth_witness", "orthogonal", "pair", "phi_map",
    "reduce_poly", "reduced_presentation", "sample_eps_chart_point",
    "sample_general_chart_point", "schubert_dimension", "smith_form_local",
    "standard_lattice", "stratum_dimension", "subspaces_iter",
    "substitution_check", "tau_fiber_check", "validate",
]
