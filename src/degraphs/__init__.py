"""Dual equivalence graphs: axiom checking, Schur positivity certification,
and edge-rewiring transformations on signed colored graphs."""

from .combinatorics import (
    Partition,
    Signature,
    Tableau,
    descent_signature,
    dominance_ge,
    dual_equiv_involution,
    enumerate_partitions,
    enumerate_syt,
    sig_from_str,
    sig_str,
    superstandard_signature,
)
from .symfunc import (
    QSym,
    SchurExpansion,
    expand_in_schur,
    is_schur_positive,
    is_single_schur,
    schur_to_fundamental,
)
from .graph import SignedColoredGraph, find_isomorphism, seeded_isomorphism
from .standard import (
    AugmentingTableau,
    build_augmented_deg,
    build_standard_deg,
    identify_component,
    single_cell_augmentation,
)
from .axioms import (
    AxiomReport,
    check_axiom,
    check_axiom4a,
    check_axiom4b,
    check_lsf,
    check_lsp,
    classify_small_component,
    is_dual_equivalence_graph,
    is_locally_schur_positive,
)
from .structure import (
    DefectSets,
    defect_sets,
    i_type,
    negatively_dominant,
    set_U,
)
from .transform import (
    TransformError,
    TransformLog,
    TransformStep,
    apply_gamma,
    apply_phi,
    apply_psi,
    apply_theta,
    eligible_rewirings,
    full_pipeline,
    one_step,
    package_isomorphism,
    replay,
)
from .fixtures import fixture, fixture_names, verify_fixture

# every public name imported above; the submodules are not part of the API
__all__ = [
    name for name, value in sorted(vars().items())
    if not name.startswith("_") and type(value) is not type(graph)
]
