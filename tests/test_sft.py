"""Forbidden-pattern checks, the admissibility axioms, and the sampler."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from finvariant import (
    FiniteAction,
    FreeGroupCtx,
    InputError,
    Pattern,
    PreconditionError,
    SftSpec,
    axioms_check,
    sample_action,
    sample_sft_config,
    sft_check_all,
    verify_zrho,
)
from finvariant.actions import derive_seed
from finvariant.freegroup import IDENTITY, inv, mul
from finvariant.orbitmaps import Automorphism
from finvariant import sft
from finvariant.shift import window_columns
from finvariant.sft import symbol_entry

from paper_objects import (
    check_local,
    identity_symbol,
    nn_spec,
    orbit_of,
    sft_check_vertex,
    sft_spec_to_json,
    telescope_walk,
    zrho_admissible,
)

CTX2 = FreeGroupCtx(2)
CTX1 = FreeGroupCtx(1)


def constant_pattern(ctx, radius, symbol):
    ball = ctx.ball(radius)
    return Pattern(ball, [symbol] * len(ball))


class TestCheckers:
    def test_empty_forbidden_always_true(self):
        spec = SftSpec(alphabet=(0, 1))
        action = sample_action(5, 2, seed=0)
        for labels in itertools.product((0, 1), repeat=5):
            assert sft_check_all(spec, action, labels)

    def test_nn_constant_avoids_off_diagonal(self):
        spec = nn_spec((0, 1), [(0, 1, 1)])
        action = sample_action(4, 2, seed=1)
        assert sft_check_all(spec, action, (0, 0, 0, 0))

    def test_r1_hand_example(self):
        # forbid the pattern e -> 0, a -> 1 over the swap action on two points
        action = FiniteAction(2, ((1, 0),))
        spec = nn_spec((0, 1), [(0, 1, 1)])
        # pullback at v=0: e -> x0, a -> x1
        assert not sft_check_all(spec, action, (0, 1))
        assert sft_check_all(spec, action, (1, 1))
        assert not sft_check_all(spec, action, (1, 0))  # violated at v=1

    def test_vertex_check_covers_orbit(self):
        # two orbits: violation in one orbit is invisible from the other
        action = FiniteAction(4, ((1, 0, 3, 2), (0, 1, 2, 3)))
        spec = nn_spec((0, 1), [(0, 1, 1)])
        labels = (0, 1, 1, 1)  # violating pair lives on the {0,1} orbit
        assert not sft_check_vertex(CTX2, spec, action, labels, 0)
        assert not sft_check_vertex(CTX2, spec, action, labels, 1)
        assert sft_check_vertex(CTX2, spec, action, labels, 2)
        assert not sft_check_all(spec, action, labels)

    def test_nn_fast_path_equals_oracle(self):
        rng = random.Random(2)
        verdicts = set()
        for _ in range(1000):
            n = rng.randint(2, 5)
            action = sample_action(n, 2, seed=rng.randint(0, 10**6))
            pairs = [
                (rng.randint(0, 1), rng.randint(0, 1), rng.randint(1, 2))
                for _ in range(rng.randint(1, 3))
            ]
            spec = nn_spec((0, 1), pairs)
            assert spec.forbidden_pairs == frozenset(pairs)
            labels = tuple(rng.randint(0, 1) for _ in range(n))
            verdict = sft_check_all(spec, action, labels)
            assert verdict == all(check_local(spec, action, labels, v) for v in range(n))
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_general_path_equals_oracle(self):
        # domains other than {e, s_i}: an inverse letter, two letters, a
        # length-two word, or a pattern away from the identity
        domains = [("", "A"), ("", "a", "b"), ("", "ab"), ("a", "b"), ("", "B", "bb")]
        rng = random.Random(3)
        verdicts = set()
        for _ in range(500):
            n = rng.randint(2, 5)
            action = sample_action(n, 2, seed=rng.randint(0, 10**6))
            forbidden = tuple(
                Pattern([CTX2.parse(f) for f in dom], [rng.randint(0, 1) for _ in dom])
                for dom in rng.sample(domains, rng.randint(1, 2))
            )
            spec = SftSpec(alphabet=(0, 1), forbidden=forbidden)
            assert spec.forbidden_pairs is None
            labels = tuple(rng.randint(0, 1) for _ in range(n))
            verdict = sft_check_all(spec, action, labels)
            assert verdict == all(check_local(spec, action, labels, v) for v in range(n))
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_nearest_neighbor_is_read_from_the_domains(self):
        # the JSON key is optional; a true key must agree with the domains
        nn = {"alphabet": ["0", "1"], "forbidden": [{"": "1", "a": "1"}]}
        assert SftSpec.from_json(CTX2, nn).forbidden_pairs == {("1", "1", 1)}
        assert SftSpec.from_json(CTX2, {**nn, "nearest_neighbor": True}).forbidden_pairs == {("1", "1", 1)}
        assert SftSpec.from_json(CTX2, {"alphabet": ["0"], "forbidden": []}).forbidden_pairs == frozenset()
        other = {"alphabet": ["0", "1"], "forbidden": [{"": "1", "A": "1"}]}
        assert SftSpec.from_json(CTX2, other).forbidden_pairs is None
        with pytest.raises(InputError):
            SftSpec.from_json(CTX2, {**other, "nearest_neighbor": True})

    def test_odd_cycle_has_no_proper_two_coloring(self):
        action = FiniteAction(3, ((1, 2, 0),))
        spec = nn_spec((0, 1), [(0, 0, 1), (1, 1, 1)])
        assert not any(
            sft_check_all(spec, action, labels)
            for labels in itertools.product((0, 1), repeat=3)
        )
        assert sft_check_all(nn_spec((0, 1), [(0, 0, 1)]), action, (1, 1, 1))


class TestAxioms:
    def test_identity_configuration_accepted(self):
        pattern = constant_pattern(CTX2, 2, identity_symbol(CTX2))
        assert axioms_check(CTX2, 1, pattern).ok

    def test_axiom1_violation(self):
        # z_e(a) = a but z_a(A) = a: the product is aa, not e
        sym = list(identity_symbol(CTX2))
        sym[1] = CTX2.parse("a")  # entry for A
        pattern = constant_pattern(CTX2, 2, tuple(sym))
        report = axioms_check(CTX2, 1, pattern)
        assert not report.ok and "axiom 1" in report.reason

    def test_swap_configuration_accepted_with_witness(self):
        swap = Automorphism.from_names(CTX2, {"a": "b", "b": "a"})
        pattern = constant_pattern(CTX2, 2, swap.constant_config(1)[0])
        assert axioms_check(CTX2, 1, pattern).ok
        # the witness for h = a must be the single letter b
        witnesses = [
            u
            for u, prod in telescope_walk(CTX2, pattern, IDENTITY, 2)
            if prod == CTX2.parse("a")
        ]
        assert witnesses == [CTX2.parse("b")]

    def test_missing_witness_rejected(self):
        # constant entries collapse everything onto powers of a: b unreachable
        sym_map = {1: CTX2.parse("a"), -1: CTX2.parse("A"), 2: CTX2.parse("a"), -2: CTX2.parse("A")}
        sym = tuple(sym_map[l] for l in CTX2.letters)
        pattern = constant_pattern(CTX2, 2, sym)
        report = axioms_check(CTX2, 1, pattern)
        assert not report.ok and "axiom 2" in report.reason

    def test_witness_beyond_the_geodesic_bound_rejected(self):
        # a rank-1, rho = 2 pattern on ball(5) found by random search: the
        # only witness for a has length 4 > rho * |a| = 2
        entries = [
            ("aa", "AA"), ("aa", "AA"), ("aa", ""), ("A", "a"), ("A", ""), ("AA", "aa"),
            ("AA", "A"), ("AA", "aa"), ("a", "A"), ("", "A"), ("A", "A"),
        ]
        symbols = [tuple(CTX1.parse(word) for word in entry) for entry in entries]
        pattern = Pattern(CTX1.ball(5), symbols)
        report = axioms_check(CTX1, 2, pattern)
        assert not report.ok
        assert report.reason == "axiom 2 fails: witness for a has length 4, beyond the geodesic bound 2"
        witnesses = [u for u, prod in telescope_walk(CTX1, pattern, IDENTITY, 5) if prod == (1,)]
        assert [len(u) for u in witnesses] == [4]

    def test_uniqueness_never_violated_on_accepted(self):
        # accepted patterns have exactly one witness per target by definition;
        # spot-check by re-walking an accepted nielsen configuration
        nielsen = Automorphism.from_names(CTX2, {"a": "ab", "b": "b"})
        pattern = constant_pattern(CTX2, 5, nielsen.constant_config(1)[0])
        assert axioms_check(CTX2, 2, pattern).ok
        for h in CTX2.ball(2):
            witnesses = [
                u for u, prod in telescope_walk(CTX2, pattern, IDENTITY, 5) if prod == h
            ]
            if h == IDENTITY:
                assert witnesses == []
            else:
                assert len(witnesses) == 1
                assert len(witnesses[0]) <= 2 * len(h)

    def test_domain_too_small_rejected(self):
        pattern = constant_pattern(CTX2, 1, identity_symbol(CTX2))
        with pytest.raises(Exception):
            axioms_check(CTX2, 1, pattern)


class TestZrhoSpec:
    """The z_rho constraint system, checked through ``verify_zrho``."""

    def test_constant_identity_accepted_any_action(self):
        ident = Automorphism.from_names(CTX2, {"a": "a", "b": "b"})
        for seed in range(3):
            action = sample_action(6, 2, seed=seed)
            verify_zrho(CTX2, 1, action, ident.constant_config(6))

    def test_constant_swap_accepted(self):
        swap = Automorphism.from_names(CTX2, {"a": "b", "b": "a"})
        action = sample_action(7, 2, seed=4)
        verify_zrho(CTX2, 1, action, swap.constant_config(7))

    def test_axiom1_mutation_rejected(self):
        swap = Automorphism.from_names(CTX2, {"a": "b", "b": "a"})
        action = sample_action(6, 2, seed=5)
        labels = list(swap.constant_config(6))
        sym = list(labels[2])
        sym[0] = CTX2.parse("a")  # z_e(a) no longer inverts across the edge
        labels[2] = tuple(sym)
        with pytest.raises(PreconditionError):
            verify_zrho(CTX2, 1, action, tuple(labels))

    def test_explicit_json_round_trip(self):
        spec = nn_spec(("0", "1"), [("0", "1", 1)])
        back = SftSpec.from_json(CTX2, sft_spec_to_json(CTX2, spec))
        assert back.forbidden_pairs == spec.forbidden_pairs


def oracle_edge_filter(ctx, rho):
    """Axiom 1 along one Schreier edge u = sigma(s)^-1 v, checked for one
    pair of symbols: z_v(s) z_u(s^-1) = e.  Reduced words multiply to e
    exactly when one is the other's inverse, which the sampler's candidate
    index relies on."""
    inverse = {w: inv(w) for w in ctx.ball(rho)}

    def ok(sym_v, sym_u, letter):
        return symbol_entry(sym_u, -letter) == inverse[symbol_entry(sym_v, letter)]

    return ok


def oracle_sample(ctx, rho, action, seed, budget, restarts):
    """The z_rho sampler trying one candidate at a time against every
    decidable edge and pullback: (configuration, units spent in the restart
    that found it), or (None, None)."""
    n = action.n
    order = sft.bfs_vertex_order(action)
    pos = {v: k for k, v in enumerate(order)}
    symbols = list(itertools.product(ctx.ball(rho), repeat=2 * ctx.rank))
    edge_ok = oracle_edge_filter(ctx, rho)
    radius = rho * rho + 1
    edges_at = [[] for _ in range(n)]
    pullbacks_at = [[] for _ in range(n)]
    for v in range(n):
        for i in range(1, ctx.rank + 1):
            u = action.letter_perm(-i)[v]
            edges_at[max(pos[v], pos[u])].append((v, u, i))
    cols = window_columns(action, ctx.ball(radius))
    for v in range(n):
        verts = tuple(col[v] for col in cols)
        pullbacks_at[max(pos[u] for u in verts)].append(verts)

    def admissible(assign, k):
        return all(edge_ok(assign[v], assign[u], i) for v, u, i in edges_at[k]) and all(
            axioms_check(ctx, rho, Pattern(ctx.ball(radius), [assign[u] for u in verts])).ok
            for verts in pullbacks_at[k]
        )

    for restart in range(restarts):
        rng = random.Random(derive_seed(seed, restart))
        per_vertex = []
        for _ in range(n):
            shuffled = symbols[:]
            rng.shuffle(shuffled)
            per_vertex.append(shuffled)
        assign = [None] * n
        left = budget

        def backtrack(k):
            nonlocal left
            if k == n:
                return True
            for sym in per_vertex[order[k]]:
                left -= 1
                if left < 0:
                    raise sft._BudgetExhausted
                assign[order[k]] = sym
                if admissible(assign, k) and backtrack(k + 1):
                    return True
            assign[order[k]] = None
            return False

        try:
            if backtrack(0):
                return tuple(assign), budget - left
        except sft._BudgetExhausted:
            continue
    return None, None


@st.composite
def edge_filter_cases(draw):
    """(rho, sym_v, sym_u, letter) over the z_rho alphabet; half the draws
    make sym_u's back entry the inverse of sym_v's out entry, so both
    verdicts occur."""
    rho = draw(st.sampled_from((1, 2)))
    words = st.sampled_from(CTX2.ball(rho))
    sym_v = draw(st.tuples(*[words] * 4))
    sym_u = list(draw(st.tuples(*[words] * 4)))
    letter = draw(st.sampled_from(CTX2.letters))
    if draw(st.booleans()):
        back = CTX2.letters.index(-letter)
        sym_u[back] = inv(symbol_entry(sym_v, letter))
    return rho, sym_v, tuple(sym_u), letter


class TestEdgeFilter:
    @settings(max_examples=300, deadline=None)
    @given(edge_filter_cases())
    def test_matches_the_product_form(self, case):
        rho, sym_v, sym_u, letter = case
        product = mul(symbol_entry(sym_v, letter), symbol_entry(sym_u, -letter))
        assert oracle_edge_filter(CTX2, rho)(sym_v, sym_u, letter) == (product == IDENTITY)


def two_block_action():
    a1 = sample_action(2, 2, seed=0)
    a2 = sample_action(2, 2, seed=100)
    perms = tuple(
        tuple(a1.perms[i]) + tuple(v + 2 for v in a2.perms[i]) for i in range(2)
    )
    return FiniteAction(4, perms)


class TestSampler:
    def test_unhinted_discovery_on_multi_orbit_action(self):
        # with two orbits the solution space is a product of per-orbit
        # families; bare backtracking finds non-constant solutions
        action = two_block_action()
        got = sample_sft_config(CTX2, 1, action, seed=0, budget=60000, restarts=2)
        assert got is not None
        assert zrho_admissible(CTX2, 1, action, got)
        assert len(set(got)) > 1

    def test_deterministic_given_seed(self):
        action = two_block_action()
        runs = [sample_sft_config(CTX2, 1, action, seed=3, budget=60000, restarts=2) for _ in range(2)]
        assert runs[0] is not None and runs[0] == runs[1]
        # every symbol is drawn from the alphabet ball(rho)^{2r}
        ball = set(CTX2.ball(1))
        assert all(len(sym) == 4 and set(sym) <= ball for sym in runs[0])

    def test_transitive_action_runs_out_of_budget(self):
        # one orbit at displacement 1 admits only the constant automorphism
        # configurations, which the default budget does not reach
        action = sample_action(4, 2, seed=0)
        assert orbit_of(action, 0) == (0, 1, 2, 3)
        assert sample_sft_config(CTX2, 1, action, seed=0) is None

    def test_sampled_configs_verify(self):
        # the CLI's route to admissibility accepts what the sampler returns
        action = two_block_action()
        for seed in range(4):
            got = sample_sft_config(CTX2, 1, action, seed=seed, budget=60000, restarts=2)
            assert got is not None
            verify_zrho(CTX2, 1, action, got)

    def test_sufficient_budget_does_not_change_the_result(self):
        # the shuffles draw from the seed alone, so a larger budget only
        # lets the same search run longer
        action = two_block_action()
        small = sample_sft_config(CTX2, 1, action, seed=0, budget=60000, restarts=2)
        large = sample_sft_config(CTX2, 1, action, seed=0, budget=240000, restarts=2)
        assert small is not None and small == large

    def test_budget_counts_one_unit_per_candidate(self):
        # on one fixed point every Schreier edge is a loop; the one-by-one
        # oracle counts the candidates tried up to the first admissible one
        action = FiniteAction(1, ((0,), (0,)))
        got = sample_sft_config(CTX2, 1, action, seed=5, restarts=1)
        expected, spent = oracle_sample(CTX2, 1, action, seed=5, budget=20000, restarts=1)
        assert got is not None and got == expected
        assert sample_sft_config(CTX2, 1, action, seed=5, budget=spent, restarts=1) == got
        assert sample_sft_config(CTX2, 1, action, seed=5, budget=spent - 1, restarts=1) is None

    def test_pullbacks_checked_through_module_axioms_check(self, monkeypatch):
        # the module-level name is the one a profiler hooks to time the checks
        action = two_block_action()
        expected = sample_sft_config(CTX2, 1, action, seed=1, budget=60000, restarts=2)
        calls = []

        def counted(ctx, rho, pattern):
            calls.append(rho)
            return axioms_check(ctx, rho, pattern)

        monkeypatch.setattr(sft, "axioms_check", counted)
        got = sample_sft_config(CTX2, 1, action, seed=1, budget=60000, restarts=2)
        assert got == expected
        assert calls and set(calls) == {1}

    @pytest.mark.parametrize("limits", [{"budget": 0}, {"budget": -5}, {"restarts": 0}, {"restarts": -3}])
    def test_limits_below_one_are_input_errors(self, limits):
        # no candidate could be tried, so "not found" would be a false verdict
        (key,) = limits
        with pytest.raises(InputError, match=f"sampler {key} must be >= 1"):
            sample_sft_config(CTX2, 1, two_block_action(), seed=0, **limits)

    def test_rho_below_one_is_an_input_error(self):
        with pytest.raises(InputError):
            sample_sft_config(CTX2, 0, sample_action(3, 2, seed=0), seed=0)


def random_action_with_fixed_points(rng, rank):
    """An action on 1-5 points where each generator is the identity or a
    random permutation, so loops and several orbits both occur."""
    n = rng.randint(1, 5)
    perms = []
    for _ in range(rank):
        perm = list(range(n))
        if rng.random() < 0.7:
            rng.shuffle(perm)
        perms.append(tuple(perm))
    return FiniteAction(n, tuple(perms))


class TestSamplerMatchesOracle:
    @pytest.mark.parametrize("rank, rho", [(1, 1), (2, 1), (1, 2)])
    def test_same_result_and_same_spend(self, rank, rho):
        # the candidate index visits only candidates that pass their edges
        # but charges every candidate in shuffled order, so the result, and
        # the least budget that reaches it, are the one-by-one oracle's
        ctx = FreeGroupCtx(rank)
        rng = random.Random(10 * rank + rho)
        outcomes = set()
        for _ in range(40):
            action = random_action_with_fixed_points(rng, rank)
            seed, restarts = rng.randrange(10**6), rng.randint(1, 3)
            budget = rng.choice((3, 40, 400, 3000))
            got = sample_sft_config(ctx, rho, action, seed, budget=budget, restarts=restarts)
            expected, spent = oracle_sample(ctx, rho, action, seed, budget, restarts)
            assert got == expected
            outcomes.add(got is None)
            if got is None:
                continue
            assert sample_sft_config(ctx, rho, action, seed, budget=spent, restarts=restarts) == got
            if spent > 1:
                fewer, _ = oracle_sample(ctx, rho, action, seed, spent - 1, restarts)
                assert sample_sft_config(ctx, rho, action, seed, budget=spent - 1, restarts=restarts) == fewer
        assert outcomes == {True, False}
