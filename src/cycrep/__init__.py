"""cycrep: exact-rational algebra of modules over the cyclic-group site.

The package computes with finitely truncated diagrams of rational vector
spaces indexed by divisibility: unit-group representations at each level,
equivariant restriction maps going up, and everything derived from them:
the rationalized representation rings of cyclic groups and their transfer
quotients, morphism and extension groups computed two independent ways,
derived inverse limits over the divisor poset, the normal-basis
isomorphism with the regular module, and an explicit never-ending
resolution with its contraction and nonvanishing extension witnesses.
"""

from .linalg import (
    QMatrix,
    Rat,
    cokernel,
    kernel_basis,
    kronecker,
    rank,
    rat,
    rat_to_str,
    rref,
    solve,
)
from .cyclic_site import (
    SupportSet,
    UnitsGroup,
    divisor_closure,
    divisors,
    support_of_divisors,
    totient,
    unit_reduction,
    units,
)
from .rep_ring import (
    MonomialReducer,
    RUElement,
    TauLevel,
    crt_iso,
    mul,
    restrict_proj,
    restrict_sub,
    tau_level,
    tau_ru_module,
    transfer,
    transfer_ideal,
    unit_action,
)
from .modules import (
    InverseSystem,
    ModuleMorphism,
    OutCycModule,
    atomic_module,
    cokernel_projection,
    direct_sum,
    dual_system,
    free_module,
    identity_morphism,
    morphism_factor,
    random_module,
    regular_module,
    restriction_matrix,
    semifree_module,
    validate,
    zero_module,
)
from .hom_ext import (
    CochainComplex,
    HomSpace,
    ext_via_resolution,
    hom_direct,
    hom_via_limit,
    lim_derived,
    sequential_lim1,
    tower_along_chain,
)
from .normal_basis import (
    ClassifierFamily,
    assemble,
    classifier_report,
    classifying_element,
    map_from_classifier,
    normal_basis_iso,
    normal_basis_report,
    unscaled_family,
)
from .resolution import (
    PrimeComplex,
    build_complex,
    contraction,
    nontrivial_ext_witness,
    verify_resolution,
)

__version__ = "0.1.0"
