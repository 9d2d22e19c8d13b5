"""Finite verification engine for kernel-intersection subgroups of
p-groups, mod-p cohomology pairings, and transfer-style theorems.

Everything is exact: groups are dense multiplication tables, cohomology is
linear algebra over F_p, and every theorem-level claim is cross-checked by
at least two independent computational paths.
"""

__version__ = "0.1.0"

from . import gf  # noqa: F401
from .core import (FiniteGroup, GroupHom, Subgroup, builtin_group,  # noqa: F401
                   center, commutator_subgroup, element_order, exponent,
                   generate_group, group_from_json, intersect_subgroups,
                   is_abelian, join_subgroups, normal_closure,
                   power_commutator_subgroup, quotient_group,
                   subgroup_as_group, subgroup_generated)
from .filtrations import (FiltrationChain, is_elementary_abelian,  # noqa: F401
                          lower_p_central, zassenhaus)
from .unitriangular import (CentralExtension, OmegaFamily,  # noqa: F401
                            build_bar_extension, build_mp3,
                            build_unitriangular, omega_family, parse_family)
from .homsearch import (enumerate_homs, lift_hom, t_bundle,  # noqa: F401
                        t_subgroup)
from .cohomology import (bockstein, classifying_cocycle,  # noqa: F401
                         conj_invariant_h1, cup, h1, h2_space,
                         is_coboundary, massey_pullback_set, pullback,
                         transgression)
from .pairings import (PairingMatrix, a_pairing, a_space, b_space,  # noqa: F401
                       c_pairing, c_space, induced_coker_ker,
                       kernel_generating_condition, liftability_crosscheck,
                       liftable_pullback_space, pairing_kernels,
                       transfer_check)
from .magnus import (counterexample_harness,  # noqa: F401
                     free_nilpotent_standin, lyndon_words, magnus_image, tau,
                     zassenhaus_membership)
from .catalog import catalog_instances, transfer_sweep  # noqa: F401
