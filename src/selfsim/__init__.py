"""Symbolic computation with self-similar groups acting on rooted trees,
their prefix-replacement groups, abelianizations, finite presentations,
and finite approximations of their limit dynamical systems."""

from .words import (
    Antichain,
    Word,
    common_refinement,
    format_word,
    is_complete_antichain,
    m_invariant,
    parse_word,
)
from .ssgroup import BudgetExceeded, GenWord, GroupDef, Verdict
from .catalogue import builtin_groups, kneading_group, resolve_group, trivial_group
from .nucleus import (
    Budget,
    NotContractingError,
    Nucleus,
    compute_nucleus,
    is_level_transitive,
    is_regular,
    is_self_replicating,
    length3_relations,
)
from .vg import (
    Table,
    orbit_witness,
    same_orbit_clopen,
    thompson_from_antichains,
)
from .abelian import (
    AbelGroup,
    PostCriticalData,
    predicted_rational_formula,
    rational_map_abelianization,
    sigma_matrix,
    sign_vector,
    smith_normal_form,
    vg_abelianization,
)
from .presentation import PresentationBundle, emit_presentation, verify_relator
from .limitspace import (
    level_identifications,
    moore_diagram,
    quotient_graph,
    schreier_graph,
)

__version__ = "0.1.0"
