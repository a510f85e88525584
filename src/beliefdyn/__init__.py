"""Belief-function calculus: mass functions on finite frames, the
bel/pl/q/b correspondences, specialization and generalization matrices,
evidence combination, conditioning, retraction, and a verification engine
that mechanically checks the algebra on desk-size frames.

The matrices (:mod:`beliefdyn.specialization`) and the verification engine
(:mod:`beliefdyn.verify`) are loaded on first use: importing the package
loads neither, and each of their names here is looked up in its module
when it is read.
"""

from importlib import import_module as _import_module

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
from .commitment import Ordering, compare
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

__version__ = "0.1.0"

# Loaded on first access (PEP 562): a belief update, and every command but
# ``check`` and ``matrix``, runs neither module.  Each access looks the name
# up in its module rather than caching it here, so a rebinding there (such
# as a tracer's wrapper) is seen here too.
_LAZY = {
    **dict.fromkeys(
        (
            "DespecializationMatrix",
            "EigenStructure",
            "GeneralizationMatrix",
            "SpecializationMatrix",
            "apply",
            "apply_despecialization",
            "apply_generalization",
            "conditioning_matrix",
            "dempsterian_matrix",
            "despecialize_matrix",
            "disjunctive_matrix",
            "eigen_structure",
            "enlargement_matrix",
            "incidence_inverse",
            "incidence_matrix",
            "is_dempsterian",
            "is_valid_generalization",
            "is_valid_specialization",
        ),
        "specialization",
    ),
    **dict.fromkeys(("CHECK_NAMES", "CheckReport", "all_passed", "format_reports", "run_all"), "verify"),
}

__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | set(_LAZY) | set(_LAZY.values())
)


def __getattr__(name):
    if name in _LAZY.values():
        return _import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
