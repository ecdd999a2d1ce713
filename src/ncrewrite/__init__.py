"""Noncommutative free-algebra rewriting engine with Turing-machine encodings."""

import types as _types

from .words import (
    EPS,
    AlphabetError,
    Word,
    parse_word,
    phi_alphabet,
    psi_alphabet,
    word_to_str,
)
from .orders import (
    DEGLEX,
    NILPOTENCY,
    ZERO_DIVISOR,
    ReductionOrder,
    nilpotency_order,
    zerodivisor_order,
)
from .rewrite import (
    BudgetExhausted,
    Matcher,
    Polynomial,
    Presentation,
    Rule,
    concat,
    format_polynomial,
    normalize,
)
from .groebner import (
    Ambiguity,
    OrderAuditReport,
    audit_order,
    audit_orientation,
    find_ambiguities,
)
from .turing import (
    Move,
    RunResult,
    TMConfig,
    TMSpec,
    format_config,
    format_tm_spec,
    minsky_utm,
    parse_config,
    parse_tm_spec,
    tm_run,
    tm_step,
)
from .encodings import (
    decode_structure,
    encode_config,
    format_presentation,
    make_presentation,
    nilpotency_presentation,
    parse_presentation,
    zerodivisor_presentation,
)
from .harness import (
    DecisionOutcome,
    LockstepReport,
    annihilate_bounded,
    cancellation_probe,
    lockstep,
    nilpotent_bounded,
    zerodivisor_witness_bounded,
)

# the submodules are bound here too; export only what they define
__all__ = [
    name for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _types.ModuleType)
]

__version__ = "0.1.0"
