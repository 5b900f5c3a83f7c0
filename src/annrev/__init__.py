"""Annotated revision programming.

Rules annotate membership assertions with strengths drawn from a
distributive lattice carrying a De Morgan complement.  The engine computes
the necessary change of a program, checks models and supported models, and
verifies or enumerates justified revisions under two reduct semantics.
Order isomorphisms of the evidence-pair lattice shift revision problems
between initial databases.
"""

from types import ModuleType as _ModuleType

from .engine import (
    FITTING,
    MPT,
    FixpointBoundError,
    Reduct,
    RevisionOutcome,
    enumerate_revisions,
    f_reduct,
    is_justified_revision,
    is_model,
    is_smodel,
    model_status,
    necessary_change,
    reduct,
    tp,
    tp_heads,
    tpb,
)
from .isomorphism import PairIso, PairMap, apply_iso, build_shift_iso, preserves_conflation
from .lattice import (
    Codec,
    CustomLattice,
    Elem,
    InvalidLatticeError,
    Lattice,
    LatticeError,
    LatticeMismatchError,
    LevelChain,
    PairValue,
    PowersetLattice,
    TwoLattice,
    UnitChain,
    UnsupportedOperationError,
    ValidationReport,
    bot_pair,
    negation,
    pair_space,
    pcomp_pair,
    top_pair,
    validate,
)
from .syntax import (
    IN,
    NEW,
    OLD,
    OUT,
    AnnotatedRevisionAtom,
    ClassicRule,
    NewRule,
    OldRule,
    PairAnnotatedAtom,
    Program,
    RevisionAtom,
    decode_classic,
    encode_classic,
    join_transform,
    rin,
    rout,
    tr1,
    tr2,
)
from .textio import Document, DslError, DslLexError, DslSemanticError, DslSyntaxError, parse, parse_iso, serialize
from .valuation import (
    PairValuation,
    TValuation,
    apply_change,
    diff,
    satisfies,
    theta,
    theta_inv,
    transformable,
)

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
