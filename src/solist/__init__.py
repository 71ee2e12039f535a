"""Self-organizing sequential search.

Simulate the move-to-front, transpose, and frequency-count list-accessing
policies under the full and partial cost models, generate
repeated-permutation request sequences, evaluate exact closed-form cost
formulas for move-to-front and transpose on those sequences, and verify
formulas against simulation cell by cell.
"""

from .closed_form import (
    Algorithm,
    Prediction,
    expected_pass_costs,
    mtf_t1,
    mtf_t2,
    predict,
    trans_t1,
    trans_t2,
)
from .errors import (
    InvalidParameterError,
    ItemNotInListError,
    NotAPermutationError,
    ParseError,
    SolistError,
)
from .harness import (
    CrossoverResult,
    GridCell,
    PassProfile,
    VerificationReport,
    crossover,
    per_pass_profile,
    verify_grid,
)
from .list_core import CostLedger, CostModel, ListState
from .policies import (
    AccessOutcome,
    FrequencyCount,
    MoveToFront,
    Policy,
    Transpose,
    make_policy,
    serve,
)
from .seqgen import (
    Family,
    RequestSequence,
    explicit_sequence,
    gen_perm_power,
    gen_t1,
    gen_t2,
    parse_list_file,
    parse_sequence_file,
)

__version__ = "0.1.0"

__all__ = [
    "AccessOutcome",
    "Algorithm",
    "CostLedger",
    "CostModel",
    "CrossoverResult",
    "Family",
    "FrequencyCount",
    "GridCell",
    "InvalidParameterError",
    "ItemNotInListError",
    "ListState",
    "MoveToFront",
    "NotAPermutationError",
    "ParseError",
    "PassProfile",
    "Policy",
    "Prediction",
    "RequestSequence",
    "SolistError",
    "Transpose",
    "VerificationReport",
    "crossover",
    "expected_pass_costs",
    "explicit_sequence",
    "gen_perm_power",
    "gen_t1",
    "gen_t2",
    "make_policy",
    "mtf_t1",
    "mtf_t2",
    "parse_list_file",
    "parse_sequence_file",
    "per_pass_profile",
    "predict",
    "serve",
    "trans_t1",
    "trans_t2",
    "verify_grid",
]
