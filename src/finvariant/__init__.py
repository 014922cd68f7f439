"""Entropy of free-group shift actions: exact Markov-weight computation,
microstate counting over random finite actions, and the bounded orbit-change
rearrangement machinery."""

from .actions import FiniteAction, derive_seed, enumerate_actions, hom_count, sample_action
from .counting import Caps, EstimateResult, EstimateRow, Neighborhood, count_omega, expected_count, f_estimate
from .errors import (
    ConstructionError,
    FinvariantError,
    InputError,
    PreconditionError,
    ResourceCapError,
    VerificationError,
    WeightError,
    WindowError,
)
from .freegroup import IDENTITY, FreeGroupCtx, Word, inv, mul, reduce_word
from .orbitmaps import (
    Automorphism,
    LocalBijection,
    decode_E,
    encode_F,
    pattern_inverse_eval,
    reconstruct_sigma,
    tau_construct,
    verify_zrho,
)
from .sft import (
    AxiomsReport,
    SftSpec,
    axioms_check,
    sample_sft_config,
    sft_check_all,
)
from .shift import Pattern, PatternDistribution, pullback_name
from .weights import (
    EntropyValue,
    F_value,
    Weight,
    marginal_distribution,
    markovize,
    rationalize_weight,
    shannon_entropy,
    weight_distance,
)

__version__ = "0.1.0"
