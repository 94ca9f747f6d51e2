"""Finite-dimensional linear relations in Krein spaces.

Subspace arithmetic, indefinite inner products, self-adjoint extension
theory through neutral complements, boundary triples with Weyl families,
and the standard-unitary similarity machinery, with a seeded
verification harness on top.
"""

from .tolerances import DEFAULT_TOL, DimensionMismatchError, TolerancePolicy
from .subspaces import Subspace, span, intersect, sum_, complement, image, preimage, \
    equal, contains, distance, trivial, full, product, kernel
from .krein import KreinSpace, DoubledKrein, make_krein, hilbert_space, doubled, \
    boundary_doubled, indefinite_gram, neutrality_rank
from .relations import LinearRelation, RelationParts, from_operator, parts, \
    is_operator, inverse, restrict, compose, shift, cw_sum, op_sum, \
    adjoint, is_symmetric, is_selfadjoint, eigenspace, graph_eigenspace, \
    spectral_probe, inverse_cayley
from .extensions import NWitness, defect_numbers, n_class_check, extend, reduce, \
    prop_n_audit, delta_membership, O_membership, Os_membership, simple_check, \
    theorem_ex_check, lemma_exn_check
from .boundary import BoundaryTriple, WeylValue, IsometricBoundaryPair, \
    validate_triple, weyl, gamma_field, transform, t_theta, pair_from_triple, \
    pair_isometry_check, DEFAULT_GRID
from .similarity import BlockUnitary, v0_operator_part, sigma_unitary_check, \
    w_maps, membership_check, build_V_from_tau, build_standard_V, \
    weyl_equality_criterion, reconstruct_similarity, w_invariance_audit
from .generators import InstanceSpec, gen_symmetric, gen_triple, \
    gen_standard_unitary, sample_witness, planted_similar_triple, scaled_triple

__version__ = "0.1.0"
