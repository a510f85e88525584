"""Belief-function calculus: mass functions on finite frames, the
bel/pl/q/b correspondences, specialization and generalization matrices,
evidence combination, conditioning, retraction, and a verification engine
that mechanically checks the algebra on desk-size frames.
"""

from .belief import (
    Kind,
    MassFunction,
    ValueFunction,
    b_from_mass,
    bel_from_mass,
    least_committed_from_disjoint_constraints,
    mass_from,
    normalize,
    pl_from_bel,
    pl_from_mass,
    q_from_mass,
    vacuous,
)
from .commitment import Ordering, compare, compare_bel_form, is_at_least_as_committed
from .dynamics import (
    combine_conjunctive,
    combine_disjunctive,
    combine_normalized,
    condition,
    enlarge,
    retract,
)
from .errors import (
    BeliefError,
    EvidenceNotContainedError,
    FrameMismatchError,
    FrameTooLargeError,
    InfeasibleConstraintsError,
    InputError,
    InvalidSpecializationError,
    NonInvertibleEvidenceError,
    NotABeliefFunctionError,
    NotDempsterianError,
    PreconditionError,
    SingularSpecializationError,
    TotalConflictError,
)
from .lattice import (
    CAP_MATRIX,
    CAP_TRANSFORM,
    DEFAULT_TOL,
    Frame,
    default_frame,
    mobius_subsets,
    mobius_supersets,
    zeta_subsets,
    zeta_supersets,
)
from .specialization import (
    DespecializationMatrix,
    EigenStructure,
    GeneralizationMatrix,
    SpecializationMatrix,
    apply,
    apply_despecialization,
    apply_generalization,
    commute_check,
    conditioning_matrix,
    dempsterian_matrix,
    despecialize_matrix,
    disjunctive_matrix,
    eigen_structure,
    enlargement_matrix,
    incidence_inverse,
    incidence_matrix,
    is_dempsterian,
    is_valid_specialization,
)
from .verify import CHECK_NAMES, CheckReport, all_passed, format_reports, run_all

__version__ = "0.1.0"
