"""Neighborhood counting, exhaustive and Monte Carlo averaging, and the
growth-rate table."""

import functools
import math
import os
import random
import statistics
import threading
import time
from fractions import Fraction
from itertools import product

import pytest

from finvariant import (
    Caps,
    EntropyValue,
    F_value,
    FiniteAction,
    FreeGroupCtx,
    InputError,
    Neighborhood,
    Pattern,
    PatternDistribution,
    ResourceCapError,
    SftSpec,
    Weight,
    counting,
    count_omega,
    enumerate_actions,
    expected_count,
    f_estimate,
    marginal_distribution,
    sample_action,
    sft_check_all,
)

from finvariant.actions import derive_seed
from finvariant.sft import bfs_vertex_order
from paper_objects import bernoulli_weight, empirical_distribution, nn_spec, weight_estimate
from test_weights import reversible_weight

CTX2 = FreeGroupCtx(2)
CTX1 = FreeGroupCtx(1)

HALF = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2)
TARGET_B1 = marginal_distribution(HALF, CTX2.ball(1))
TARGET_B0 = marginal_distribution(HALF, CTX2.ball(0))


class TestActionSpaces:
    def test_single_point(self):
        actions = list(enumerate_actions(1, 2))
        assert len(actions) == 1 and actions[0].perms == ((0,), (0,))

    def test_two_points_rank_two(self):
        assert len(list(enumerate_actions(2, 2))) == 4

    def test_three_points_rank_two(self):
        assert len(list(enumerate_actions(3, 2))) == 36

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            list(enumerate_actions(6, 2, cap=1000))

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 1000])
    def test_sampler_makes_the_draws_of_the_hand_written_shuffle(self, n, rank):
        # the Fisher-Yates loop sample_action once ran is the oracle of its
        # rng.shuffle: the same randbelow draws give the same permutations
        for seed in range(20):
            rng = random.Random(seed)
            perms = []
            for _ in range(rank):
                arr = list(range(n))
                for i in range(n - 1, 0, -1):
                    j = rng.randint(0, i)
                    arr[i], arr[j] = arr[j], arr[i]
                perms.append(tuple(arr))
            assert sample_action(n, rank, seed).perms == tuple(perms)

    def test_sampler_deterministic_and_uniformish(self):
        a = sample_action(5, 2, seed=42)
        b = sample_action(5, 2, seed=42)
        assert a == b
        seen = {sample_action(2, 1, seed=s).perms for s in range(20)}
        assert seen == {((0, 1),), ((1, 0),)}


class TestCountOmega:
    def test_epsilon_two_counts_everything(self):
        action = sample_action(3, 2, seed=0)
        nbhd = Neighborhood(target=TARGET_B1, epsilon=2.0)
        assert count_omega(CTX2, action, ("0", "1"), nbhd) == 8

    def test_single_vertex_cannot_split(self):
        action = FiniteAction(1, ((0,), (0,)))
        nbhd = Neighborhood(target=TARGET_B0, epsilon=0.1)
        assert count_omega(CTX2, action, ("0", "1"), nbhd) == 0

    def test_r1_hand_enumeration(self):
        # swap on two points against the product edge target; worked by hand:
        # only the two alternating labelings have pair distance 1, none reach 0
        half1 = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 1)
        target = marginal_distribution(half1, CTX1.ball(1)).project(((), (1,)))
        action = FiniteAction(2, ((1, 0),))
        zero = Neighborhood(target=target, epsilon=Fraction(0))
        one = Neighborhood(target=target, epsilon=1.0)
        # just below 1: a rational epsilon is compared exactly, with no slack
        below = Neighborhood(target=target, epsilon=Fraction(1) - Fraction(1, 10**13))
        assert count_omega(CTX1, action, ("0", "1"), zero) == 0
        assert count_omega(CTX1, action, ("0", "1"), one) == 2
        assert count_omega(CTX1, action, ("0", "1"), below) == 0

    def test_monotone_in_epsilon(self):
        action = sample_action(5, 2, seed=3)
        counts = [
            count_omega(
                CTX2, action, ("0", "1"), Neighborhood(target=TARGET_B1, epsilon=eps)
            )
            for eps in (0.5, 1.0, 1.5, 2.0)
        ]
        assert counts == sorted(counts)

    def test_antitone_in_window(self):
        action = sample_action(6, 2, seed=4)
        for eps in (0.4, 0.8, 1.2):
            big = count_omega(
                CTX2, action, ("0", "1"), Neighborhood(target=TARGET_B1, epsilon=eps)
            )
            small = count_omega(
                CTX2, action, ("0", "1"), Neighborhood(target=TARGET_B0, epsilon=eps)
            )
            assert big <= small

    def test_restriction_shrinks(self):
        spec = nn_spec(("0", "1"), [("0", "1", 1), ("1", "0", 1)])
        action = FiniteAction(4, ((1, 2, 3, 0), (0, 1, 2, 3)))
        loose = Neighborhood(target=TARGET_B1, epsilon=2.0)
        tight = Neighborhood(target=TARGET_B1, epsilon=2.0, sft=spec)
        a = count_omega(CTX2, action, ("0", "1"), loose)
        b = count_omega(CTX2, action, ("0", "1"), tight)
        assert b <= a and (a, b) == (16, 2)

    def test_trivial_restriction_is_noop(self):
        spec = nn_spec(("0", "1"), [])
        action = sample_action(4, 2, seed=5)
        for eps in (0.5, 1.5):
            plain = Neighborhood(target=TARGET_B1, epsilon=eps)
            wrapped = Neighborhood(target=TARGET_B1, epsilon=eps, sft=spec)
            assert count_omega(CTX2, action, ("0", "1"), plain) == count_omega(
                CTX2, action, ("0", "1"), wrapped
            )

    def test_exact_requires_rational_target(self):
        float_target = marginal_distribution(
            bernoulli_weight({"0": 0.5, "1": 0.5}, 2), CTX2.ball(0)
        )
        with pytest.raises(InputError):
            Neighborhood(target=float_target, epsilon=0)

    def test_label_cap(self):
        action = sample_action(30, 2, seed=0)
        nbhd = Neighborhood(target=TARGET_B0, epsilon=1.0)
        with pytest.raises(ResourceCapError):
            count_omega(CTX2, action, ("0", "1"), nbhd, caps=Caps(labelings=100))

    @pytest.mark.parametrize("radius,mode", [(0, "window"), (1, "window"), (1, "edge_star")])
    def test_a_search_deeper_than_the_recursion_limit(self, radius, mode):
        # the search holds one stack level per vertex, far past the
        # interpreter's recursion limit at n = 5000
        target = marginal_distribution(bernoulli_weight({"0": Fraction(1)}, 2), CTX2.ball(radius))
        nbhd = Neighborhood(target=target, epsilon=Fraction(0), mode=mode)
        assert count_omega(CTX2, sample_action(5000, 2, seed=0), ("0",), nbhd) == 1


def _exact_marginal(dist, window):
    """The marginal of ``dist`` on ``window`` as a dict of Fractions, each
    float read as the exact dyadic rational it is.  A dict and not a
    PatternDistribution, since the dyadic total of a float target may miss 1
    by rounding."""
    cols = [dist.window.index(g) for g in window]
    out = {}
    for key, p in dist.probs.items():
        small = tuple(key[c] for c in cols)
        out[small] = out.get(small, 0) + Fraction(p)
    return out


@functools.lru_cache(maxsize=None)
def _brute_distances(ctx, action, alphabet, target, mode):
    """Each labeling of A^n with its l1 distance to the target (``window``)
    or the sum of its {e, s_i} pair-marginal l1 distances (``edge_star``),
    in Fractions.  Cached, since the oracle cases share actions across
    epsilons."""
    if mode == "window":
        windows = [target.window]
    else:
        windows = [((), (i,)) for i in range(1, ctx.rank + 1)]
    targets = [_exact_marginal(target, window) for window in windows]
    radius = max(len(g) for g in target.window)
    out = []
    for labels in product(alphabet, repeat=action.n):
        emp = empirical_distribution(ctx, action, labels, radius)
        dist = 0
        for window, t in zip(windows, targets):
            e = _exact_marginal(emp, window)
            dist += sum(abs(e.get(k, 0) - t.get(k, 0)) for k in set(e) | set(t))
        assert isinstance(dist, (int, Fraction))
        out.append((labels, dist))
    return out


def brute_count(ctx, action, alphabet, nbhd):
    """Reference count: each labeling's empirical distribution and its exact
    distance to the target.  A rational epsilon around an exact target is
    compared exactly; a float epsilon or a float target carries the
    documented 1e-12 slack, the float sum epsilon + 1e-12."""
    eps = nbhd.epsilon
    if isinstance(eps, float) or not nbhd.target.is_exact:
        bound = Fraction(float(eps) + 1e-12)
    else:
        bound = eps
    return sum(
        1
        for labels, dist in _brute_distances(ctx, action, tuple(alphabet), nbhd.target, nbhd.mode)
        if dist <= bound and (nbhd.sft is None or sft_check_all(nbhd.sft, action, labels))
    )


SKEWED = marginal_distribution(
    # a Markov weight with correlated generator-1 edges: uneven target masses
    Weight.from_tables(
        2,
        ("0", "1"),
        {"0": Fraction(1, 2), "1": Fraction(1, 2)},
        {
            ("0", "0", 1): Fraction(3, 8),
            ("0", "1", 1): Fraction(1, 8),
            ("1", "0", 1): Fraction(1, 8),
            ("1", "1", 1): Fraction(3, 8),
            ("0", "0", 2): Fraction(1, 4),
            ("0", "1", 2): Fraction(1, 4),
            ("1", "0", 2): Fraction(1, 4),
            ("1", "1", 2): Fraction(1, 4),
        },
    ),
    CTX2.ball(1),
)
TARGET_THREE = marginal_distribution(
    bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 3), "2": Fraction(1, 6)}, 2),
    CTX2.ball(1),
)
ORACLE_TARGETS = {
    "half_r0": TARGET_B0,
    "half_r1": TARGET_B1,
    "third_r1": marginal_distribution(
        bernoulli_weight({"0": Fraction(1, 3), "1": Fraction(2, 3)}, 2), CTX2.ball(1)
    ),
    "skewed_r1": SKEWED,
    "float_r1": marginal_distribution(bernoulli_weight({"0": 0.3, "1": 0.7}, 2), CTX2.ball(1)),
    # dyadic denominators near 2^1050: n d is too large for a float
    "tiny_float_r0": PatternDistribution(((),), {("0",): 1e-300, ("1",): 1.0}),
    "tiny_float_r1": marginal_distribution(
        bernoulli_weight({"0": 1e-300, "1": 1.0}, 2), CTX2.ball(1)
    ),
    # counted over ("0", "1"), the mass on "2" sits on keys no labeling shows
    "three_r0": TARGET_THREE.project(((),)),
    "three_r1": TARGET_THREE,
    # an explicit zero-mass entry must not block exact statistics
    "zero_mass_r0": PatternDistribution(
        ((),), {("0",): Fraction(3, 4), ("1",): Fraction(1, 4), ("2",): Fraction(0)}
    ),
}
ORACLE_EPSILONS = [
    Fraction(0), Fraction(1, 4), Fraction(3, 10), Fraction(1, 2), Fraction(5, 4), Fraction(7, 4),
    0.0, 0.3, 0.5, 1.0, 1.7, 1.85,
]


BINARY = ("0", "1")
TERNARY = ("0", "1", "2")
ORACLE_ACTIONS = [
    *(sample_action(n, 2, seed=seed) for n, seed in ((3, 1), (4, 2), (4, 3), (6, 4))),
    # every vertex fills every column of its own key
    FiniteAction(4, ((0, 1, 2, 3), (0, 1, 2, 3))),
    # fixed points: s_1 fixes 0 and 3, s_2 fixes 1 and 2
    FiniteAction(4, ((0, 2, 1, 3), (3, 1, 2, 0))),
]

ORACLE_SYSTEMS = {
    # the benchmark's golden-mean shift: no "1" beside "1" along either generator
    "golden_mean": lambda alphabet: nn_spec(alphabet, [("1", "1", 1), ("1", "1", 2)]),
    # a pair (a, a, i) bans a at every fixed point of s_i: vertices 0 and 3
    # of the last oracle action for s_1, 1 and 2 for s_2, all four for the identity
    "fixed_points": lambda alphabet: nn_spec(alphabet, [("0", "0", 1), ("1", "1", 2)]),
    # not nearest-neighbor: one pattern on the three words e, s_1, s_2
    "three_words": lambda alphabet: SftSpec(
        alphabet=tuple(alphabet), forbidden=(Pattern([(), (1,), (2,)], ["1", "0", "1"]),)
    ),
    # a forbidden pair beside a wider pattern: the pair prunes the search in
    # a system that is not nearest-neighbor, and the leaves check the rest
    "pair_and_three_words": lambda alphabet: SftSpec(
        alphabet=tuple(alphabet),
        forbidden=(Pattern([(), (2,)], ["0", "1"]), Pattern([(), (1,), (2,)], ["1", "0", "1"])),
    ),
}


class TestBruteForceOracle:
    @pytest.mark.parametrize("mode,target,alphabet", [
        *(
            pytest.param(mode, target, BINARY, id=f"{mode}-{target}")
            for mode, target in (
                ("window", "half_r0"), ("window", "half_r1"), ("window", "skewed_r1"),
                ("window", "zero_mass_r0"), ("edge_star", "half_r1"),
                ("edge_star", "third_r1"), ("edge_star", "skewed_r1"),
                ("window", "float_r1"), ("edge_star", "float_r1"),
                ("window", "tiny_float_r0"), ("window", "tiny_float_r1"),
                ("edge_star", "tiny_float_r1"),
                ("window", "three_r0"), ("edge_star", "three_r1"),
            )
        ),
        *(
            pytest.param(mode, target, TERNARY, id=f"{mode}-{target}-ternary")
            for mode, target in (
                ("window", "three_r0"), ("window", "three_r1"),
                ("edge_star", "three_r1"), ("edge_star", "half_r1"),
            )
        ),
    ])
    @pytest.mark.parametrize("eps", ORACLE_EPSILONS, ids=repr)
    @pytest.mark.parametrize("restricted", [False, True])
    def test_counts_equal_brute_force(self, mode, target, alphabet, eps, restricted):
        spec = nn_spec(alphabet, [("0", "1", 1)]) if restricted else None
        target = ORACLE_TARGETS[target]
        if float(eps) == 0 and not target.is_exact:
            with pytest.raises(InputError):
                Neighborhood(target=target, epsilon=eps, mode=mode, sft=spec)
            return
        nbhd = Neighborhood(target=target, epsilon=eps, mode=mode, sft=spec)
        for action in ORACLE_ACTIONS:
            assert count_omega(CTX2, action, alphabet, nbhd) == brute_count(
                CTX2, action, alphabet, nbhd
            ), action

    @pytest.mark.parametrize("system", sorted(ORACLE_SYSTEMS))
    @pytest.mark.parametrize("mode,target,alphabet", [
        pytest.param(mode, target, alphabet, id=f"{mode}-{target}")
        for mode, target, alphabet in (
            ("window", "half_r1", BINARY), ("edge_star", "skewed_r1", BINARY),
            ("edge_star", "float_r1", BINARY), ("window", "three_r0", TERNARY),
        )
    ])
    @pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(5, 4), 1.0, Fraction(7, 4)], ids=repr)
    def test_constraint_systems_equal_brute_force(self, system, mode, target, alphabet, eps):
        nbhd = Neighborhood(target=ORACLE_TARGETS[target], epsilon=eps, mode=mode,
                            sft=ORACLE_SYSTEMS[system](alphabet))
        for action in ORACLE_ACTIONS:
            assert count_omega(CTX2, action, alphabet, nbhd) == brute_count(CTX2, action, alphabet, nbhd), action

    def test_the_feasibility_edge_of_the_uniform_r1_target(self):
        # n keys on 32 codes of target mass n/32 are at least 2(1 - n/32)
        # away, reached exactly when the keys are distinct: the search's
        # bound is tight there, and a hair below it nothing counts
        reached = 0
        for action in ORACLE_ACTIONS:
            edge = 2 * (1 - Fraction(action.n, 32))
            at = Neighborhood(target=TARGET_B1, epsilon=edge)
            below = Neighborhood(target=TARGET_B1, epsilon=edge - Fraction(1, 10**9))
            count = count_omega(CTX2, action, BINARY, at)
            assert count == brute_count(CTX2, action, BINARY, at), action
            assert count_omega(CTX2, action, BINARY, below) == 0 == brute_count(CTX2, action, BINARY, below), action
            reached += count
        assert reached > 0

    @pytest.mark.parametrize("mode,target", [
        *(("window", t) for t in ORACLE_TARGETS),
        *(("edge_star", t) for t in ORACLE_TARGETS if len(ORACLE_TARGETS[t].window) > 1),
    ])
    def test_counts_do_not_decrease_in_epsilon(self, mode, target):
        # a float epsilon carries the float slack, so it sorts after the
        # rational of the same value
        target = ORACLE_TARGETS[target]
        epsilons = sorted((e for e in ORACLE_EPSILONS if target.is_exact or e), key=lambda e: (e, isinstance(e, float)))
        nbhds = [Neighborhood(target=target, epsilon=eps, mode=mode) for eps in epsilons]
        for action in ORACLE_ACTIONS:
            counts = [count_omega(CTX2, action, BINARY, nbhd) for nbhd in nbhds]
            assert counts == sorted(counts), action
        means = [expected_count(CTX2, 3, BINARY, nbhd).mean_count for nbhd in nbhds]
        assert means == sorted(means)


UNIFORM_THREE = marginal_distribution(
    bernoulli_weight({a: Fraction(1, 3) for a in TERNARY}, 2), CTX2.ball(1)
)


class TestSymbolSymmetry:
    """A target and constraint system that a swap of symbols keeps are counted
    from one symbol per orbit at the first vertex; every count is brute
    force's, and the orbits are the swaps that really keep both."""

    @staticmethod
    def _orbits(nbhd, alphabet):
        return counting._setup(CTX2, 4, alphabet, nbhd, Caps())[-1]

    @pytest.mark.parametrize("mode,target,alphabet,spec,orbits", [
        pytest.param("window", TARGET_B1, BINARY, None, [2, 0], id="uniform_r1_binary"),
        pytest.param("window", UNIFORM_THREE, TERNARY, None, [3, 0, 0], id="uniform_r1_ternary"),
        # 00 and 11 at 3/8 along s_1: the swap keeps every pair mass
        pytest.param("edge_star", SKEWED, BINARY, None, [2, 0], id="edge_star_skewed"),
        pytest.param("window", TARGET_B1, BINARY, nn_spec(BINARY, [("0", "1", 1), ("1", "0", 1)]), [2, 0],
                     id="symmetric_nn"),
        pytest.param("window", UNIFORM_THREE, TERNARY, SftSpec(alphabet=TERNARY, forbidden=(
            Pattern([(), (1,), (2,)], ["1", "0", "1"]), Pattern([(), (1,), (2,)], ["0", "1", "0"]),
        )), [2, 0, 1], id="symmetric_non_nn"),
        # "2" sits on keys no labeling shows: counted over 0 and 1 the swap still holds
        pytest.param("window", UNIFORM_THREE, BINARY, None, [2, 0], id="restricted_alphabet"),
        # the target has the swap, the golden-mean system does not
        pytest.param("window", TARGET_B1, BINARY, ORACLE_SYSTEMS["golden_mean"](BINARY), [1, 1],
                     id="asymmetric_system"),
        pytest.param("window", UNIFORM_THREE, TERNARY, nn_spec(TERNARY, [("2", "2", 1)]), [2, 0, 1],
                     id="system_fixes_one_symbol"),
        pytest.param("window", TARGET_THREE, TERNARY, None, [1, 1, 1], id="asymmetric_target"),
    ])
    @pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(5, 4), 1.0, Fraction(7, 4)], ids=repr)
    def test_counts_equal_brute_force(self, mode, target, alphabet, spec, orbits, eps):
        nbhd = Neighborhood(target=target, epsilon=eps, mode=mode, sft=spec)
        assert self._orbits(nbhd, alphabet) == orbits
        for action in ORACLE_ACTIONS:
            assert count_omega(CTX2, action, alphabet, nbhd) == brute_count(CTX2, action, alphabet, nbhd), action

    def test_the_first_vertex_takes_only_each_orbits_least_symbol(self, monkeypatch):
        spec = nn_spec(BINARY, [("0", "1", 1), ("1", "0", 1)])
        nbhd = Neighborhood(target=TARGET_B1, epsilon=Fraction(7, 4), sft=spec)
        firsts = []  # the first BFS vertex's symbol in each labeling the system judges
        for action in ORACLE_ACTIONS:
            first = bfs_vertex_order(action)[0]
            monkeypatch.setattr(counting, "sft_check_all",
                                lambda s, a, x: firsts.append(x[first]) or sft_check_all(s, a, x))
            count_omega(CTX2, action, BINARY, nbhd)
        assert firsts and set(firsts) == {"0"}

    def test_the_uniform_ternary_set_up_has_one_orbit_of_size_three(self):
        assert self._orbits(Neighborhood(target=UNIFORM_THREE, epsilon=Fraction(1)), TERNARY) == [3, 0, 0]

    def test_exact_enumeration_counts_every_orbit(self):
        # a radius-1 window is averaged over all n!^r actions by count_omega
        nbhd = Neighborhood(target=UNIFORM_THREE, epsilon=Fraction(3, 2))
        walked = sum(brute_count(CTX2, a, TERNARY, nbhd) for a in enumerate_actions(2, 2))
        assert expected_count(CTX2, 2, TERNARY, nbhd, mode="exact").mean_count == walked / 4


class TestExactStatistics:
    def _diag_weight(self):
        return (
            "diag",
            bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2),
        )

    def test_y_restriction_never_changes_exact_counts(self):
        # a weight vanishing off the gen-1 diagonal: labelings with exact edge
        # statistics automatically satisfy the support constraints
        w = Weight.from_tables(
            2,
            ("0", "1"),
            {"0": Fraction(1, 2), "1": Fraction(1, 2)},
            {
                ("0", "0", 1): Fraction(1, 2),
                ("1", "1", 1): Fraction(1, 2),
                ("0", "0", 2): Fraction(1, 4),
                ("0", "1", 2): Fraction(1, 4),
                ("1", "0", 2): Fraction(1, 4),
                ("1", "1", 2): Fraction(1, 4),
            },
        )
        target = marginal_distribution(w, CTX2.ball(1))
        support = nn_spec(("0", "1"), [("0", "1", 1), ("1", "0", 1)])
        hits = 0
        for seed in range(30):
            action = sample_action(4, 2, seed=seed)
            plain = Neighborhood(target=target, epsilon=Fraction(0), mode="edge_star")
            tight = Neighborhood(
                target=target, epsilon=Fraction(0), mode="edge_star", sft=support
            )
            a = count_omega(CTX2, action, ("0", "1"), plain)
            b = count_omega(CTX2, action, ("0", "1"), tight)
            assert a == b
            hits += a
        assert hits > 0  # the check must not be vacuous

    def test_window_mode_exact_also_invariant(self):
        w = Weight.from_tables(
            2,
            ("0", "1"),
            {"0": Fraction(1, 2), "1": Fraction(1, 2)},
            {
                ("0", "0", 1): Fraction(1, 2),
                ("1", "1", 1): Fraction(1, 2),
                ("0", "0", 2): Fraction(1, 4),
                ("0", "1", 2): Fraction(1, 4),
                ("1", "0", 2): Fraction(1, 4),
                ("1", "1", 2): Fraction(1, 4),
            },
        )
        target = marginal_distribution(w, CTX2.ball(1))
        support = nn_spec(("0", "1"), [("0", "1", 1), ("1", "0", 1)])
        hits = 0
        for seed in range(40):
            action = sample_action(8, 2, seed=seed)
            plain = Neighborhood(target=target, epsilon=Fraction(0))
            tight = Neighborhood(target=target, epsilon=Fraction(0), sft=support)
            a = count_omega(CTX2, action, ("0", "1"), plain)
            b = count_omega(CTX2, action, ("0", "1"), tight)
            assert a == b
            hits += a
        assert hits > 0


class TestExpectedCount:
    def test_epsilon_two_exact(self):
        nbhd = Neighborhood(target=TARGET_B1, epsilon=2.0)
        stats = expected_count(CTX2, 2, ("0", "1"), nbhd, mode="exact")
        assert stats.mean_count == 4.0 and stats.samples == 4

    def test_exact_is_plain_average(self):
        nbhd = Neighborhood(target=TARGET_B1, epsilon=1.85)
        total = sum(
            count_omega(CTX2, a, ("0", "1"), nbhd) for a in enumerate_actions(2, 2)
        )
        stats = expected_count(CTX2, 2, ("0", "1"), nbhd, mode="exact")
        assert stats.mean_count == total / 4

    def test_mc_matches_exact_within_three_stderr(self):
        nbhd = Neighborhood(target=TARGET_B1, epsilon=1.85)
        for n in (3, 4):
            exact = expected_count(CTX2, n, ("0", "1"), nbhd, mode="exact")
            mc = expected_count(
                CTX2, n, ("0", "1"), nbhd, mode="monte_carlo", samples=1500, seed=7
            )
            assert abs(mc.mean_count - exact.mean_count) <= 3 * mc.stderr + 1e-9

    def test_mc_deterministic_and_thread_independent(self):
        nbhd = Neighborhood(target=TARGET_B1, epsilon=1.5)
        base = expected_count(
            CTX2, 4, ("0", "1"), nbhd, mode="monte_carlo", samples=40, seed=3
        )
        again = expected_count(
            CTX2, 4, ("0", "1"), nbhd, mode="monte_carlo", samples=40, seed=3
        )
        assert base == again

    def test_setup_is_built_once_per_n(self, monkeypatch):
        # the edge_star pair targets depend on n, not on which of the 3!^2
        # actions is counted: r projections in all, not r per action
        calls = []
        project = PatternDistribution.project

        def counted(self, subwindow):
            calls.append(subwindow)
            return project(self, subwindow)

        monkeypatch.setattr(PatternDistribution, "project", counted)
        nbhd = Neighborhood(target=TARGET_B1, epsilon=Fraction(1), mode="edge_star")
        stats = expected_count(CTX2, 3, ("0", "1"), nbhd, mode="exact")
        assert len(calls) == CTX2.rank
        assert stats.mean_count == 8 / 3

    def test_exact_cap(self):
        nbhd = Neighborhood(target=TARGET_B0, epsilon=1.0)
        with pytest.raises(ResourceCapError):
            expected_count(
                CTX2, 5, ("0", "1"), nbhd, mode="exact", caps=Caps(exact_actions=100)
            )


class TestSerialCounting:
    """Averaging counts one action at a time in the calling process: the
    Monte Carlo row is the mean over the per-index seeds, exact enumeration
    counts every action once, and an error in a count reaches the caller
    as it was raised."""

    # counts that differ from action to action
    NBHD = Neighborhood(target=TARGET_B1, epsilon=Fraction(37, 20))

    @staticmethod
    def _spy(monkeypatch):
        seen = []
        count = counting.count_omega

        def spied(ctx, action, *args):
            seen.append(action)
            return count(ctx, action, *args)

        monkeypatch.setattr(counting, "count_omega", spied)
        return seen

    @pytest.mark.parametrize("samples", [1, 2, 5, 6])
    def test_monte_carlo_rows_are_the_per_index_means(self, samples):
        row = expected_count(CTX2, 4, BINARY, self.NBHD, mode="monte_carlo", samples=samples, seed=3)
        # drawn last index first: a draw depends on its own index alone
        counts = [
            count_omega(CTX2, sample_action(4, 2, derive_seed(3, idx)), BINARY, self.NBHD)
            for idx in reversed(range(samples))
        ][::-1]
        assert row.samples == samples and row.mean_count == sum(counts) / samples
        assert row.log_mean_over_n == math.log(row.mean_count) / 4
        spread = statistics.stdev(counts) / math.sqrt(samples) if samples > 1 else 0.0
        assert row.stderr == pytest.approx(spread, rel=1e-12, abs=0.0)

    def test_monte_carlo_draws_come_in_index_order(self, monkeypatch):
        seen = self._spy(monkeypatch)
        expected_count(CTX2, 4, BINARY, self.NBHD, mode="monte_carlo", samples=6, seed=3)
        assert seen == [sample_action(4, 2, derive_seed(3, idx)) for idx in range(6)]
        assert len({count_omega(CTX2, a, BINARY, self.NBHD) for a in seen}) > 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_enumeration_counts_every_action_once(self, monkeypatch, n):
        seen = self._spy(monkeypatch)
        row = expected_count(CTX2, n, BINARY, self.NBHD, mode="exact")
        assert seen == list(enumerate_actions(n, 2))
        walked = sum(counting.count_omega(CTX2, a, BINARY, self.NBHD) for a in list(seen))
        assert row.samples == math.factorial(n) ** 2 and row.mean_count == walked / row.samples

    @pytest.mark.parametrize("mode", ["monte_carlo", "exact"])
    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt, MemoryError])
    def test_an_error_in_a_count_reaches_the_caller(self, monkeypatch, mode, error):
        nbhd = Neighborhood(target=TARGET_B1, epsilon=Fraction(37, 20))
        before = expected_count(CTX2, 3, BINARY, nbhd, mode=mode, samples=5, seed=5)
        calls = []
        count = counting.count_omega

        def third_fails(*args):
            calls.append(1)
            if len(calls) == 3:
                raise error("in the third count")
            return count(*args)

        monkeypatch.setattr(counting, "count_omega", third_fails)
        with pytest.raises(error, match="in the third count"):
            expected_count(CTX2, 3, BINARY, nbhd, mode=mode, samples=5, seed=5)
        assert len(calls) == 3
        # the neighborhood's cached set-up is left whole
        monkeypatch.setattr(counting, "count_omega", count)
        assert expected_count(CTX2, 3, BINARY, nbhd, mode=mode, samples=5, seed=5) == before

    @pytest.mark.parametrize("mode", ["monte_carlo", "exact"])
    def test_counting_starts_no_process(self, monkeypatch, mode):
        serial = expected_count(CTX2, 3, BINARY, self.NBHD, mode=mode, samples=7, seed=5)

        def refused(*args, **kwargs):
            raise AssertionError("counting started a process")

        for name in ("fork", "posix_spawn", "posix_spawnp"):
            if hasattr(os, name):
                monkeypatch.setattr(os, name, refused)
        assert expected_count(CTX2, 3, BINARY, self.NBHD, mode=mode, samples=7, seed=5) == serial

    def test_rows_counted_in_two_threads_match_a_serial_run(self):
        # both threads build and read one neighborhood's set-up cache
        nbhd = Neighborhood(target=TARGET_B1, epsilon=Fraction(37, 20))
        serial = expected_count(CTX2, 4, BINARY, self.NBHD, mode="monte_carlo", samples=6, seed=3)
        rows, start = [], threading.Barrier(2, timeout=60)

        def run():
            start.wait()
            rows.append(expected_count(CTX2, 4, BINARY, nbhd, mode="monte_carlo", samples=6, seed=3))

        threads = [threading.Thread(target=run) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        assert rows == [serial, serial]

    def test_the_label_cap_is_checked_before_any_draw(self, monkeypatch):
        drawn = []
        sample = counting.sample_action
        monkeypatch.setattr(counting, "sample_action", lambda *args: drawn.append(args) or sample(*args))
        with pytest.raises(ResourceCapError):
            expected_count(CTX2, 4, BINARY, self.NBHD, mode="monte_carlo", samples=6, caps=Caps(labelings=15))
        assert drawn == []

    def test_f_estimate_rows_take_one_derived_seed_per_n(self):
        result = f_estimate(CTX2, TARGET_B1, BINARY, Fraction(37, 20), [3, 4], samples=6, seed=2)
        assert result.rows == tuple(
            expected_count(CTX2, n, BINARY, self.NBHD, mode="monte_carlo", samples=6, seed=derive_seed(2, n))
            for n in (3, 4)
        )


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_the_type_route_factorials_count_every_labeling(n):
    # with every labeling in reach each type k adds multinomial(n; k) n!^r:
    # the table's entries up to n! together make |A|^n n!^r
    nbhd = Neighborhood(target=TARGET_B0, epsilon=Fraction(2))
    total = counting._count_by_type(CTX2, n, BINARY, nbhd, Caps(labelings=2**n))
    assert total == 2**n * math.factorial(n) ** 2


class TestFEstimate:
    def test_point_mass_rows_exactly_zero(self):
        pm = bernoulli_weight({"0": Fraction(1), "1": Fraction(0)}, 2)
        result = weight_estimate(
            CTX2, pm, 1, 0.05, [3, 5], mode="monte_carlo", samples=15, seed=1
        )
        for row in result.rows:
            assert row.mean_count == 1.0 and row.log_mean_over_n == 0.0

    def test_zero_counts_report_neg_inf(self):
        # an n-vertex labeling charges at most n of the 32 radius-1 patterns,
        # so its l1 distance to the uniform target is at least 2(1 - n/32):
        # 1.375 at n = 10, far above 0.1, and every count is 0
        result = weight_estimate(
            CTX2, HALF, 1, 0.1, [4, 10], mode="monte_carlo", samples=10, seed=2
        )
        assert [row.log_mean_over_n for row in result.rows] == [float("-inf")] * 2

    def test_exact_statistics_divisibility_warning(self):
        result = weight_estimate(
            CTX2,
            HALF,
            0,
            Fraction(0),
            [3],
            mode="monte_carlo",
            samples=5,
            seed=3,
        )
        assert result.warnings and "multiple" in result.warnings[0]
        assert result.rows[0].log_mean_over_n == float("-inf")

    def test_divisibility_warning_follows_the_distance_mode(self):
        # edge_star compares the pair projections, whose denominators are 4,
        # so n = 4 is attainable there; the full radius-1 window needs 32 | n
        edge = weight_estimate(
            CTX2, HALF, 1, Fraction(0), [4], mode="exact", distance_mode="edge_star"
        )
        assert edge.warnings == ()
        assert edge.rows[0].mean_count == pytest.approx(8 / 3)
        window = weight_estimate(CTX2, HALF, 1, Fraction(0), [4], mode="exact")
        assert len(window.warnings) == 1 and "lcm 32" in window.warnings[0]
        assert window.rows[0].mean_count == 0

    def test_window_zero_consistency_toward_base_entropy(self):
        # the desk-scale demonstration: the histogram-window estimate walks
        # toward ln 2 as n grows
        result = weight_estimate(
            CTX2, HALF, 0, 0.1, [4, 6, 8, 10], mode="monte_carlo", samples=40, seed=4
        )
        errs = [abs(row.log_mean_over_n - math.log(2)) for row in result.rows]
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] <= 0.35


def integer_markov_weight(rank, symbols, rng, points):
    """An exact Markov weight over ``points``: a random type m of that many
    points (every m_a >= 1) and, per generator, the pair table of m under a
    random permutation, so each table's row and column sums are m.  Its
    vertex and edge masses are multiples of 1/points, some edges 0."""
    cuts = sorted(rng.sample(range(1, points), len(symbols) - 1))
    m = [b - a for a, b in zip([0, *cuts], [*cuts, points])]
    labels = [a for a, c in zip(symbols, m) for _ in range(c)]
    edge = {(a, b, i): Fraction(0) for a in symbols for b in symbols for i in range(1, rank + 1)}
    for i in range(1, rank + 1):
        perm = rng.sample(range(points), points)
        for v in range(points):
            edge[(labels[v], labels[perm[v]], i)] += Fraction(1, points)
    return Weight.from_tables(rank, tuple(symbols), {a: Fraction(c, points) for a, c in zip(symbols, m)}, edge)


def random_by_type_case(seed):
    """A seeded exact-mode case the labeling-type sum covers: window radius 0
    or edge_star, exact or float target, epsilon 0 included, n that the
    target's denominators often do not divide, optionally an NN system whose
    pairs may name a symbol outside the counted alphabet."""
    rng = random.Random(seed)
    rank, q = rng.choice([1, 2]), rng.choice([2, 3])
    ctx = FreeGroupCtx(rank)
    symbols = TERNARY[:q]
    if rng.random() < 0.25:
        weight = reversible_weight(rank, symbols, rng)
    else:
        weight = integer_markov_weight(rank, symbols, rng, rng.randint(q, 6))
    mode = rng.choice(["window", "edge_star"])
    target = marginal_distribution(weight, ctx.ball(0 if mode == "window" else 1))
    # counting over a smaller alphabet leaves target mass no labeling shows
    alphabet = symbols[:2] if q == 3 and rng.random() < 0.2 else symbols
    if target.is_exact and rng.random() < 0.3:
        eps = Fraction(0)
    else:
        eps = rng.choice([Fraction(rng.randint(1, 8), 4), round(rng.uniform(0.05, 2), 2)])
    spec = None
    if rng.random() < 0.5:
        names = TERNARY if rng.random() < 0.2 else alphabet
        forbidden = [(rng.choice(names), rng.choice(names), rng.randint(1, rank)) for _ in range(rng.randint(1, 2))]
        spec = nn_spec(TERNARY, forbidden)
    n = rng.randint(1, 5 if rank == 1 else (4 if len(alphabet) == 2 else 3))
    return ctx, n, alphabet, Neighborhood(target=target, epsilon=eps, mode=mode, sft=spec)


class TestExactByType:
    @pytest.mark.parametrize("seed", range(240))
    def test_matches_enumeration(self, seed):
        ctx, n, alphabet, nbhd = random_by_type_case(seed)
        total = math.factorial(n) ** ctx.rank
        walked = sum(count_omega(ctx, a, alphabet, nbhd) for a in enumerate_actions(n, ctx.rank))
        stats = expected_count(ctx, n, alphabet, nbhd, mode="exact")
        assert (stats.mean_count, stats.stderr, stats.samples) == (walked / total, 0.0, total)

    def test_cases_cover_exact_statistics_and_misses(self):
        cases = [random_by_type_case(seed) for seed in range(240)]
        lcms = [(n, _statistic_lcm(ctx, nbhd)) for ctx, n, _, nbhd in cases if nbhd.epsilon == 0]
        assert len(lcms) >= 30
        # exact statistics both attainable and out of reach of n
        assert any(n % d for n, d in lcms) and any(n % d == 0 and d > 1 for n, d in lcms)

    @staticmethod
    def _refuse(*args, **kwargs):
        raise AssertionError("exact mode walked the actions")

    @pytest.mark.parametrize("radius,mode,forbidden", [
        (1, "edge_star", None),
        (0, "window", None),
        (1, "edge_star", [("1", "1", 2)]),
        (0, "window", [("0", "0", 2)]),
    ], ids=["edge_star", "radius_0", "edge_star_nn", "radius_0_nn"])
    def test_pair_statistics_do_not_walk_actions(self, monkeypatch, radius, mode, forbidden):
        monkeypatch.setattr(counting, "enumerate_actions", self._refuse)
        monkeypatch.setattr(counting, "count_omega", self._refuse)
        spec = None if forbidden is None else nn_spec(BINARY, forbidden)
        target = marginal_distribution(HALF, CTX2.ball(radius))
        nbhd = Neighborhood(target=target, epsilon=Fraction(1), mode=mode, sft=spec)
        stats = expected_count(CTX2, 6, BINARY, nbhd, mode="exact")
        assert stats.mean_count > 0 and stats.samples == math.factorial(6) ** 2

    @pytest.mark.parametrize("radius,mode,forbidden", [
        (1, "window", None),
        # a forbidden domain {e, s_1 s_2} is not nearest-neighbor
        (1, "edge_star", [Pattern([(), (1, 2)], ["0", "1"])]),
    ], ids=["window_radius_1", "non_nn_system"])
    def test_wider_statistics_still_walk_actions(self, monkeypatch, radius, mode, forbidden):
        walked = []
        monkeypatch.setattr(counting, "count_omega", lambda *args: walked.append(args) or 1)
        spec = None if forbidden is None else SftSpec(alphabet=BINARY, forbidden=tuple(forbidden))
        target = marginal_distribution(HALF, CTX2.ball(radius))
        nbhd = Neighborhood(target=target, epsilon=Fraction(1, 2), mode=mode, sft=spec)
        assert expected_count(CTX2, 3, BINARY, nbhd, mode="exact").mean_count == 1.0
        assert len(walked) == 36

    def test_a_mean_beyond_float_range_is_a_cap(self):
        # radius 0 at epsilon 2 counts all 2^1100 labelings of every action;
        # no generator reads a table, so no table is listed
        nbhd = Neighborhood(target=TARGET_B0, epsilon=Fraction(2))
        caps = Caps(exact_actions=math.factorial(1100) ** 2, labelings=2**1100)
        t0 = time.perf_counter()
        with pytest.raises(ResourceCapError, match="n=1100"):
            expected_count(CTX2, 1100, BINARY, nbhd, mode="exact", caps=caps)
        assert time.perf_counter() - t0 < 1.0

    def test_a_mean_below_float_range_is_a_cap(self):
        # rank 3, pi uniform on three symbols, each edge table a permutation
        # matrix over 3: F = -2 ln 3, and at epsilon 0 the edge-star mean is
        # 1 / multinomial(n; n/3, n/3, n/3)^2, positive but below the
        # smallest float at n = 636; it once read as a count of 0
        symbols = ("0", "1", "2")
        perms = [(0, 1, 2), (1, 2, 0), (1, 0, 2)]
        edge = {(symbols[a], symbols[p[a]], i): Fraction(1, 3) for i, p in enumerate(perms, 1) for a in range(3)}
        w = Weight.from_tables(3, symbols, {a: Fraction(1, 3) for a in symbols}, edge)
        ctx = FreeGroupCtx(3)
        assert F_value(w) == EntropyValue.exact({3: -2})
        caps = Caps(exact_actions=math.factorial(636) ** 3, labelings=3**636)
        t0 = time.perf_counter()
        with pytest.raises(ResourceCapError, match="n=636"):
            weight_estimate(ctx, w, 1, Fraction(0), [636], mode="exact", distance_mode="edge_star", caps=caps)
        assert time.perf_counter() - t0 < 5.0
        # inside float range the same weight reads its closed form, 1/multinomial^2
        row = weight_estimate(ctx, w, 1, Fraction(0), [6], mode="exact", distance_mode="edge_star", caps=caps).rows[0]
        assert row.mean_count == 1 / 90**2


def _statistic_lcm(ctx, nbhd):
    """The lcm of the denominators of the statistics' targets: the n that
    exact statistics can reach are its multiples."""
    windows = [nbhd.target.window] if nbhd.mode == "window" else [((), (i,)) for i in range(1, ctx.rank + 1)]
    return math.lcm(*(Fraction(p).denominator for w in windows for p in nbhd.target.project(w).probs.values()))


def robbins_log_factorial_bounds(m):
    """Two-sided bounds on ln m! (Robbins, Amer. Math. Monthly 62, 1955):
    ln m! = m ln m - m + ln(2 pi m)/2 + r_m with 1/(12m+1) < r_m < 1/(12m);
    ln 0! = 0 exactly."""
    if m == 0:
        return 0.0, 0.0
    base = m * math.log(m) - m + math.log(2 * math.pi * m) / 2
    return base + 1 / (12 * m + 1), base + 1 / (12 * m)


class TestCountingMeetsFValue:
    """At epsilon 0 the edge-star count of a Markov weight W with vertex
    vector pi has one labeling type, n pi, and one table per generator,
    n W^i, so E = multinomial(n; n pi) prod_i prod_a (n pi_a)!^2 /
    (n! prod_ab (n W^i_ab)!) exactly, and (1/n) ln E - F(W) is a sum of
    Stirling remainders."""

    @staticmethod
    def _factorials(w, n):
        """The signed factorial arguments of ln E: (m, coefficient) pairs."""
        pi = [n * w.vertex_prob(a) for a in w.alphabet]
        terms = [(n, 1)] + [(x, -1) for x in pi]
        for i in range(1, w.rank + 1):
            terms += [(x, 2) for x in pi] + [(n, -1)]
            terms += [(n * w.edge_prob(a, b, i), -1) for a in w.alphabet for b in w.alphabet]
        assert all(Fraction(m).denominator == 1 for m, _ in terms)
        return [(int(m), c) for m, c in terms]

    def _estimate(self, w, n_list):
        ctx = FreeGroupCtx(w.rank)
        caps = Caps(exact_actions=math.factorial(max(n_list)) ** w.rank, labelings=len(w.alphabet) ** max(n_list))
        result = weight_estimate(ctx, w, 1, Fraction(0), n_list, mode="exact", distance_mode="edge_star", caps=caps)
        assert result.warnings == ()
        return ctx, result.rows

    # each rank 1-3 with each of |A| = 2, 3, twice
    @pytest.mark.parametrize("seed", range(12))
    def test_mean_count_is_the_closed_form(self, seed):
        rng = random.Random(seed)
        points = rng.randint(3, 7)
        w = integer_markov_weight(1 + seed % 3, TERNARY[: 2 + seed // 3 % 2], rng, points)
        n_list = list(range(points, 61, points))
        for n, row in zip(n_list, self._estimate(w, n_list)[1]):
            assert row.mean_count > 0
            closed = Fraction(1)
            for m, c in self._factorials(w, n):
                closed *= Fraction(math.factorial(m)) ** c
            assert row.mean_count == float(closed), n

    @pytest.mark.parametrize("seed", range(12))
    def test_growth_rate_gap_is_within_stirling_bounds(self, seed):
        rng = random.Random(1000 + seed)
        q, points = 2 + seed // 3 % 2, rng.randint(3, 8)
        w = integer_markov_weight(1 + seed % 3, TERNARY[:q], rng, points)
        f = float(F_value(w))
        # the mean must be a normal float: it is at most |A|^n, and ln E is
        # n F up to O(ln n), with F < 0 for strongly correlated edges
        top = int(min(699 / math.log(q), 600 / max(-f, 1e-9))) // points * points
        n_list = sorted({points, 4 * points, top // 2 // points * points, top})
        ctx, rows = self._estimate(w, n_list)
        for n, row in zip(n_list, rows):
            lo = hi = -n * f
            for m, c in self._factorials(w, n):
                below, above = robbins_log_factorial_bounds(m)
                lo += c * (below if c > 0 else above)
                hi += c * (above if c > 0 else below)
            # 1e-12: float rounding in ln E, F and the bounds, far inside the width
            assert lo / n - 1e-12 <= row.log_mean_over_n - f <= hi / n + 1e-12, n
