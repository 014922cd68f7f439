"""Entropy of free-group shift actions: exact Markov-weight computation,
microstate counting over random finite actions, and the bounded orbit-change
rearrangement machinery."""

from .actions import FiniteAction, Microstate, derive_seed, enumerate_actions, hom_count, sample_action
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
from .freegroup import IDENTITY, FreeGroupCtx, Word, inv, mul, reduce_word, word_length
from .orbitmaps import (
    Automorphism,
    LocalBijection,
    decode_E,
    encode_E,
    encode_F,
    encode_F_product,
    identity_bijection,
    pattern_inverse_eval,
    reconstruct_sigma,
    sym_distance,
    tau_construct,
    theta_action,
    theta_tilde,
    upsilon_action,
    upsilon_tilde,
    verify_zrho,
)
from .sft import (
    AxiomsReport,
    OrbitAlphabet,
    SftSpec,
    axioms_check,
    nn_spec,
    sample_sft_config,
    sft_check_all,
    sft_check_vertex,
    zrho_spec,
)
from .shift import (
    Alphabet,
    BlockCode,
    Pattern,
    PatternDistribution,
    apply_block_code,
    d_star,
    empirical_distribution,
    empirical_product_distribution,
    identity_code,
    join_code,
    l1_distance,
    pullback_name,
    shift_pattern,
)
from .weights import (
    EntropyValue,
    F_value,
    Weight,
    bernoulli_weight,
    constancy_check,
    f_markov,
    marginal_distribution,
    markovize,
    pattern_probability,
    rationalize_weight,
    shannon_entropy,
    weight_distance,
    window_entropy,
)

__version__ = "0.1.0"
