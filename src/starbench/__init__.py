"""starbench: build witness DFAs, combine them with star/product/boolean
constructions, minimize, and check measured state counts against the
closed-form bounds."""

from .core import Dfa, EpsNfa, write_dfa
from .ops import BooleanOp, concat_nfa, dfa_to_nfa, product_dfa, reverse_nfa, star_nfa
from .minimize import (
    DEFAULT_SUBSET_CAP,
    SubsetCapExceeded,
    SubsetDfa,
    determinize,
    minimal_dfa,
    minimize,
)
from .witnesses import WitnessSpec, build, format_witness, monoid_size, parse_witness
from .bounds import NoKnownBound, TABLE, UnknownOperation, evaluate
from .oracle import SemanticOracle
from .verify import (
    OracleReport,
    VerificationCell,
    exhaustive_oracle,
    membership_oracle,
    run_pipeline,
    verify_cell,
    verify_table,
)

__all__ = [
    "BooleanOp",
    "DEFAULT_SUBSET_CAP",
    "Dfa",
    "EpsNfa",
    "NoKnownBound",
    "OracleReport",
    "SemanticOracle",
    "SubsetCapExceeded",
    "SubsetDfa",
    "TABLE",
    "UnknownOperation",
    "VerificationCell",
    "WitnessSpec",
    "build",
    "concat_nfa",
    "determinize",
    "dfa_to_nfa",
    "evaluate",
    "exhaustive_oracle",
    "format_witness",
    "membership_oracle",
    "minimal_dfa",
    "minimize",
    "monoid_size",
    "parse_witness",
    "product_dfa",
    "reverse_nfa",
    "run_pipeline",
    "star_nfa",
    "verify_cell",
    "verify_table",
    "write_dfa",
]
