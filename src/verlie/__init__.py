"""Exact modular Lie theory over F_p: Chevalley bases, Jordan chains of
nilpotent derivations, semisimplification into Lie superalgebras, and
certificates against the catalog of exceptional targets."""

from . import errors
from .chevalley import (
    IntegralLieAlgebra,
    catalog_algebra,
    chevalley_basis,
    gl,
    integral_catalog,
    reduce_mod_p,
    sl,
)
from .repalpha import (
    ChainDecomposition,
    JordanChain,
    Realization,
    block_counts,
    jordan_decompose,
    parse_element,
    realize,
    realize_derivation,
    structured_decompose,
)
from .roots import (
    GCM,
    Coloring,
    Root,
    RootSystem,
    admissible_subsets,
    boundary_nodes,
    catalog_gcm,
    derive_tilde,
    legal_swap,
    positive_roots,
    swap_orbit,
    validate_gcm,
)
from .semisimplify import (
    SemisimplifiedAlgebra,
    semisimplify,
)
from .superalgebra import (
    ModularSuperAlgebra,
    Subspace,
    check_odd_cubes,
    check_super_jacobi,
    check_super_skew,
    gen_subquotient,
    generated_subalgebra,
    ideal_closure,
    quotient,
    superdim,
)
from .verify import (
    Certificate,
    TargetSpec,
    cartan_torus_images,
    certify,
    certify_even_route,
    check_generation,
    check_relations,
    custom_plan_g36,
    generator_images,
    plan_images,
    recognize_even_type,
    target_by_name,
    target_catalog,
    weight_split,
)

__version__ = "0.1.0"
