"""Exact computation of the Redei-Berge symmetric function of a digraph.

The central object U_D is the sum, over all permutations of the vertex
set, of Gessel's fundamental quasisymmetric function indexed by the
positions where the permutation steps along an edge of D.  The package
computes U_D by several independent routes (descent enumeration, path
covers, signed power sums, determinant coefficient extraction,
Jacobi-Trudi style path-polynomial determinants, immanants), expands it
in the classical bases, evaluates Chow's path-cycle refinements, and
counts Hamiltonian paths and cycles through determinant-permanent
identities.  All arithmetic is exact.
"""

from .combinat import (
    character,
    conjugate,
    cycle_type,
    partitions_of,
    record_partition,
    z_lambda,
)
from .digraph import (
    Digraph,
    complement,
    complete_digraph,
    digraph,
    directed_path_digraph,
    empty_digraph,
    is_acyclic,
    is_tournament,
    opposite,
    poset_digraph,
    random_digraph,
    random_tournament,
    star_partition_digraph,
)
from .guards import DisagreementError, GuardError
from .hamilton import (
    ham_cycles,
    ham_detper,
    ham_dp,
    ham_report,
    parity_suite,
    wiseman_check,
)
from .redei import (
    applicable_routes,
    chow_xi,
    chow_xi_hat,
    hook_coefficient,
    u_acyclic,
    u_all_routes,
    u_digraph,
    u_from_chow,
    u_tournament,
    u_via_fundamental,
    u_via_immanant_LR,
    u_via_matrix_route,
    u_via_path_covers,
    u_via_powersum_GS,
    u_via_schur_JT,
    u_via_subset_formula,
    verify_chow_identities,
)
from .ringmat import (
    immanant,
    permanent_ryser,
    principal_determinants,
    principal_permanents,
)
from .symfun import (
    SymFun,
    TwoAlphabetSymFun,
    convert,
    littlewood_richardson,
    multiply,
    omega,
)
from .walks import verify_walk_identity, xi

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
