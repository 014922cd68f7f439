"""Shift action on patterns, pullback names, empirical distributions, block
codes, and the l1 machinery."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from finvariant import (
    Automorphism,
    FiniteAction,
    FreeGroupCtx,
    InputError,
    Pattern,
    PatternDistribution,
    marginal_distribution,
    pullback_name,
    sample_action,
)
from finvariant.freegroup import IDENTITY, inv, mul, reduce_word
from finvariant.shift import pullback_classes, window_columns, write_prob

from paper_objects import (
    Alphabet,
    BlockCode,
    act,
    apply_block_code,
    as_dict,
    bernoulli_weight,
    d_star,
    distribution_by_entries,
    empirical_distribution,
    identity_code,
    join_code,
    l1_distance,
    read_prob,
    restrict,
    shift_pattern,
)
from test_weights import mass_case


def outcome(read) -> tuple:
    """The masses, total and exactness ``read()`` gives, or the message it raises."""
    try:
        dist = read()
    except InputError as exc:
        return "error", str(exc)
    return list(dist.masses.items()), dist.total, dist.is_exact


@pytest.fixture(scope="module")
def ctx():
    return FreeGroupCtx(2)


def random_word(rng, ctx, max_len=3):
    return reduce_word(rng.choices(ctx.letters, k=rng.randint(0, max_len)))


class TestShift:
    def test_identity_shift(self, ctx):
        p = Pattern([(), ctx.parse("a")], [0, 1])
        assert shift_pattern(IDENTITY, p) == p

    def test_basic_move(self, ctx):
        p = Pattern([(), ctx.parse("a")], [0, 1])
        q = shift_pattern(ctx.parse("a"), p)
        assert as_dict(q) == {ctx.parse("a"): 0, ctx.parse("aa"): 1}

    def test_action_law_randomized(self, ctx):
        rng = random.Random(12)
        for _ in range(200):
            domain = rng.sample(ctx.ball(2), 5)
            p = Pattern(domain, [rng.randint(0, 2) for _ in domain])
            g, h = random_word(rng, ctx, 2), random_word(rng, ctx, 2)
            assert shift_pattern(g, shift_pattern(h, p)) == shift_pattern(mul(g, h), p)


class TestPullback:
    def test_single_vertex_constant(self, ctx):
        action = FiniteAction(1, ((0,), (0,)))
        p = pullback_name(ctx, action, ("c",), 0, 2)
        assert set(p.values) == {"c"}

    def test_identity_action_constant(self, ctx):
        action = FiniteAction(3, ((0, 1, 2), (0, 1, 2)))
        x = ("u", "v", "w")
        for v in range(3):
            p = pullback_name(ctx, action, x, v, 2)
            assert set(p.values) == {x[v]}

    def test_r1_hand_example(self):
        ctx1 = FreeGroupCtx(1)
        action = FiniteAction(2, ((1, 0),))
        p = pullback_name(ctx1, action, (0, 1), 0, 1)
        assert as_dict(p) == {(): 0, (1,): 1, (-1,): 1}

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 3), st.integers(1, 7), st.data())
    def test_matches_the_sorting_constructor(self, rank, m, n, data):
        # pullback_name skips the shortlex sort of its ball domain; the oracle
        # builds the same pattern from the defining formula, domain reversed
        ctx = FreeGroupCtx(rank)
        action = sample_action(n, rank, seed=data.draw(st.integers(0, 10**6)))
        labels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        v = data.draw(st.integers(0, n - 1))
        ball = list(reversed(ctx.ball(m)))
        oracle = Pattern(ball, [labels[act(action, inv(g), v)] for g in ball])
        got = pullback_name(ctx, action, labels, v, m)
        assert got == oracle
        assert all(got[g] == oracle[g] for g in ball)

    def test_equivariance(self, ctx):
        # pullback at sigma(g) v on the shrunken ball equals the g-shift of the
        # pullback at v
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(2, 7)
            action = sample_action(n, 2, seed=rng.randint(0, 10**6))
            x = tuple(rng.randint(0, 1) for _ in range(n))
            v = rng.randrange(n)
            m = 3
            g = random_word(rng, ctx, 1)
            u = act(action, g, v)
            small = ctx.ball(m - len(g))
            lhs = pullback_name(ctx, action, x, u, m - len(g))
            rhs = restrict(shift_pattern(g, pullback_name(ctx, action, x, v, m)), small)
            assert lhs == rhs


def action_with_fixed_points(rng, rank):
    """An action on 1-6 points where each generator is the identity, a
    random permutation, or one with fixed points."""
    n = rng.randint(1, 6)
    perms = []
    for _ in range(rank):
        perm = list(range(n))
        kind = rng.randrange(3)
        if kind == 1:
            rng.shuffle(perm)
        elif kind == 2:
            moved = rng.sample(perm, rng.randint(0, n))
            for u, w in zip(moved, moved[1:] + moved[:1]):
                perm[u] = w
        perms.append(tuple(perm))
    return FiniteAction(n, tuple(perms))


def columns_by_act(action, window):
    """Per word g, sigma(g)^-1 v at every vertex, one vertex and one letter at a time."""
    return [tuple(act(action, inv(g), v) for v in range(action.n)) for g in window]


class TestWindowColumns:
    """``window_columns`` is the one routine that composes sigma along
    words; ``act`` is its one-vertex oracle."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 10**6))
    def test_ball_windows(self, rank, radius, seed):
        ctx = FreeGroupCtx(rank)
        action = action_with_fixed_points(random.Random(seed), rank)
        window = ctx.ball(radius)
        assert window_columns(action, window) == columns_by_act(action, window)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.integers(0, 10**6), st.data())
    def test_any_window_in_any_order(self, rank, seed, data):
        # words missing their prefixes, out of shortlex order and repeated
        ctx = FreeGroupCtx(rank)
        action = action_with_fixed_points(random.Random(seed), rank)
        window = data.draw(st.lists(st.sampled_from(ctx.ball(4)), max_size=8))
        assert window_columns(action, window) == columns_by_act(action, window)

    @pytest.mark.parametrize("spelled", [["", "ab"], ["ab"], ["aB", "Ba"], ["", "bA", "aab"], ["abab", "a"]])
    def test_windows_that_are_not_prefix_closed(self, spelled):
        # forbidden-pattern domains such as {e, ab} name words whose prefixes
        # they leave out; those prefixes are built on the way
        ctx = FreeGroupCtx(2)
        action = sample_action(7, 2, seed=3)
        window = [ctx.parse(w) for w in spelled]
        assert window_columns(action, window) == columns_by_act(action, window)


def named_classes(ctx, action, labels, m):
    """The partition by naming every vertex's radius-m pullback: per vertex
    the index of its name, names indexed by first appearance, and each
    name's first vertex (the per-vertex dedupe ``pullback_classes`` replaced)."""
    index, of_vertex, firsts = {}, [], []
    for v in range(action.n):
        values = pullback_name(ctx, action, labels, v, m).values
        if values not in index:
            index[values] = len(firsts)
            firsts.append(v)
        of_vertex.append(index[values])
    return of_vertex, firsts


# one non-identity automorphism per rank, whose constant configuration the
# oracle test labels with
AUTOMORPHISMS = {1: {1: (-1,)}, 2: {1: (1, 2), 2: (2,)}, 3: {1: (1, 2), 2: (3,), 3: (2,)}}


class TestPullbackClasses:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.integers(0, 5), st.integers(1, 9), st.data())
    def test_matches_naming_every_vertex(self, rank, m, n, data):
        ctx = FreeGroupCtx(rank)
        # each generator permutes the vertices outside a drawn fixed set
        perms = []
        for _ in range(rank):
            fixed = data.draw(st.sets(st.integers(0, n - 1)))
            moving = [v for v in range(n) if v not in fixed]
            image = dict(zip(moving, data.draw(st.permutations(moving))))
            perms.append(tuple(image.get(v, v) for v in range(n)))
        action = FiniteAction(n, tuple(perms))
        kind = data.draw(st.sampled_from(["constant", "two", "three", "automorphism"]))
        if kind == "constant":
            labels = ("c",) * n
        elif kind == "automorphism":
            labels = Automorphism(ctx, AUTOMORPHISMS[rank]).constant_config(n)
        else:
            size = 2 if kind == "two" else 3
            labels = tuple(data.draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n)))
        of_vertex, firsts, rounds = pullback_classes(ctx, action, labels, m)
        assert (of_vertex, firsts) == named_classes(ctx, action, labels, m)
        assert 0 <= rounds <= m

    def test_constant_labels_stop_after_round_0(self):
        ctx = FreeGroupCtx(2)
        action = sample_action(30, 2, seed=4)
        assert pullback_classes(ctx, action, ("c",) * 30, 5) == ([0] * 30, [0], 0)

    def test_random_labels_run_every_round(self):
        # on a 64-cycle each round widens the window that tells vertices apart
        ctx = FreeGroupCtx(1)
        action = FiniteAction(64, (tuple((v + 1) % 64 for v in range(64)),))
        rng = random.Random(1)
        labels = tuple(rng.randint(0, 1) for _ in range(64))
        counts = []
        for m in range(4):
            of_vertex, firsts, rounds = pullback_classes(ctx, action, labels, m)
            assert rounds == m
            assert (of_vertex, firsts) == named_classes(ctx, action, labels, m)
            counts.append(len(firsts))
        assert counts == sorted(set(counts))


class TestEmpirical:
    def test_constant_is_point_mass(self, ctx):
        action = sample_action(5, 2, seed=0)
        dist = empirical_distribution(ctx, action, ("z",) * 5, 1)
        assert list(dist.probs.values()) == [Fraction(1)]

    def test_window_zero_is_histogram(self, ctx):
        action = sample_action(4, 2, seed=1)
        dist = empirical_distribution(ctx, action, (0, 1, 0, 1), 0)
        assert dist.probs == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}

    def test_projection_consistency(self, ctx):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(2, 6)
            action = sample_action(n, 2, seed=rng.randint(0, 10**6))
            x = tuple(rng.randint(0, 1) for _ in range(n))
            big = empirical_distribution(ctx, action, x, 2)
            small = empirical_distribution(ctx, action, x, 1)
            assert l1_distance(big.project(ctx.ball(1)), small) == 0

    def test_multiples_of_one_over_n(self, ctx):
        action = sample_action(6, 2, seed=5)
        x = (0, 1, 1, 0, 1, 0)
        dist = empirical_distribution(ctx, action, x, 1)
        assert all(p.denominator in (1, 2, 3, 6) for p in dist.probs.values())
        assert sum(dist.probs.values()) == 1


class TestL1:
    def test_zero_iff_equal(self, ctx):
        w = ctx.ball(0)
        p = PatternDistribution(w, {(0,): 0.5, (1,): 0.5})
        q = PatternDistribution(w, {(0,): 0.5, (1,): 0.5})
        assert l1_distance(p, q) == 0

    def test_disjoint_supports(self, ctx):
        w = ctx.ball(0)
        p = PatternDistribution(w, {(0,): 1.0})
        q = PatternDistribution(w, {(1,): 1.0})
        assert l1_distance(p, q) == 2

    def test_direct_sum_example(self, ctx):
        w = (IDENTITY, (1,))
        p = PatternDistribution(w, {(0, 0): 0.5, (1, 1): 0.5})
        q = PatternDistribution(w, {(0, 0): 0.25, (1, 1): 0.25, (0, 1): 0.5})
        assert l1_distance(p, q) == pytest.approx(1.0)

    def test_window_mismatch(self, ctx):
        p = PatternDistribution(ctx.ball(0), {(0,): 1.0})
        q = PatternDistribution(ctx.ball(1), {(0, 0, 0, 0, 0): 1.0})
        with pytest.raises(InputError):
            l1_distance(p, q)

    def test_projection_monotone(self, ctx):
        # distance over a subwindow never exceeds the full-window distance
        rng = random.Random(21)
        action = sample_action(6, 2, seed=77)
        for _ in range(40):
            x = tuple(rng.randint(0, 1) for _ in range(6))
            y = tuple(rng.randint(0, 1) for _ in range(6))
            dx = empirical_distribution(ctx, action, x, 1)
            dy = empirical_distribution(ctx, action, y, 1)
            sub = ctx.ball(0)
            assert l1_distance(dx.project(sub), dy.project(sub)) <= l1_distance(dx, dy)

    def test_d_star_sums_edge_windows(self, ctx):
        action = sample_action(5, 2, seed=3)
        rng = random.Random(5)
        x = tuple(rng.randint(0, 1) for _ in range(5))
        y = tuple(rng.randint(0, 1) for _ in range(5))
        dx = empirical_distribution(ctx, action, x, 1)
        dy = empirical_distribution(ctx, action, y, 1)
        total = 0
        for i in (1, 2):
            w = (IDENTITY, (i,))
            total += l1_distance(dx.project(w), dy.project(w))
        assert d_star(ctx, dx, dy) == total


class TestBlockCode:
    def test_identity_code(self, ctx):
        action = sample_action(4, 2, seed=6)
        x = (0, 1, 1, 0)
        code = identity_code(Alphabet((0, 1)))
        assert apply_block_code(ctx, code, action, x) == x

    def test_constant_code(self, ctx):
        alphabet = Alphabet((0, 1))
        cells = len(ctx.ball(1))
        import itertools

        table = {k: "c" for k in itertools.product((0, 1), repeat=cells)}
        code = BlockCode(1, alphabet, table)
        action = sample_action(4, 2, seed=6)
        assert apply_block_code(ctx, code, action, (0, 1, 1, 0)) == ("c",) * 4

    def test_majority_hand_example(self):
        # 3-cycle, window-1 majority vote over (e, a, A): worked out by hand
        ctx1 = FreeGroupCtx(1)
        action = FiniteAction(3, ((1, 2, 0),))
        import itertools

        table = {k: int(sum(k) >= 2) for k in itertools.product((0, 1), repeat=3)}
        code = BlockCode(1, Alphabet((0, 1)), table)
        assert apply_block_code(ctx1, code, action, (0, 0, 1)) == (0, 0, 0)

    def test_partial_table_rejected(self):
        with pytest.raises(InputError):
            BlockCode(0, Alphabet((0, 1)), {(0,): 0})

    def test_join_code_recoding_injective(self, ctx):
        # the join recoding eta keeps distinct labelings distinct and is
        # recovered by evaluating the identity cell
        import itertools

        alphabet = Alphabet((0, 1))
        code = join_code(ctx, alphabet, 1)
        e_idx = ctx.ball(1).index(IDENTITY)
        for seed in (0, 1):
            action = sample_action(3, 2, seed=seed)
            images = {}
            for x in itertools.product((0, 1), repeat=3):
                eta = apply_block_code(ctx, code, action, x)
                assert eta not in images
                images[eta] = x
                assert tuple(sym[e_idx] for sym in eta) == x

    def test_join_recoding_telescoping_recovery(self, ctx):
        # eta(v)(f) = psi(sigma(f^-1) v) where psi(v) = eta(v)(e)
        import itertools

        code = join_code(ctx, Alphabet((0, 1)), 1)
        window = ctx.ball(1)
        e_idx = window.index(IDENTITY)
        action = sample_action(4, 2, seed=9)
        for x in itertools.product((0, 1), repeat=4):
            eta = apply_block_code(ctx, code, action, x)
            psi = tuple(sym[e_idx] for sym in eta)
            for v in range(4):
                for k, f in enumerate(window):
                    assert eta[v][k] == psi[act(action, inv(f), v)]

    def test_telescoping_recovery_detects_corruption(self, ctx):
        # breaking one non-identity cell of a consistent recoding makes the
        # recovery formula disagree with the stored value
        code = join_code(ctx, Alphabet((0, 1)), 1)
        window = ctx.ball(1)
        e_idx = window.index(IDENTITY)
        action = sample_action(5, 2, seed=10)
        x = (0, 1, 0, 1, 1)
        eta = list(apply_block_code(ctx, code, action, x))
        target_cell = (e_idx + 1) % len(window)
        sym = list(eta[2])
        sym[target_cell] = 1 - sym[target_cell]
        eta[2] = tuple(sym)
        psi = tuple(s[e_idx] for s in eta)
        recovered_consistent = all(
            eta[v][k] == psi[act(action, inv(f), v)]
            for v in range(5)
            for k, f in enumerate(window)
        )
        assert not recovered_consistent


class TestDistanceProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=4, max_size=4),
        st.lists(st.integers(min_value=0, max_value=5), min_size=4, max_size=4),
    )
    def test_l1_axioms_on_histograms(self, raw_p, raw_q):
        # symmetric, in [0, 2], zero iff equal
        from fractions import Fraction as F

        if sum(raw_p) == 0 or sum(raw_q) == 0:
            return
        ctx = FreeGroupCtx(2)
        window = ctx.ball(0)
        p = PatternDistribution(
            window, {(k,): F(x, sum(raw_p)) for k, x in enumerate(raw_p) if x}
        )
        q = PatternDistribution(
            window, {(k,): F(x, sum(raw_q)) for k, x in enumerate(raw_q) if x}
        )
        d = l1_distance(p, q)
        assert 0 <= d <= 2
        assert d == l1_distance(q, p)
        assert (d == 0) == (p.probs == q.probs)


class TestDistributionJson:
    def test_round_trip(self, ctx):
        action = sample_action(5, 2, seed=13)
        x = (0, 1, 0, 0, 1)
        dist = empirical_distribution(ctx, action, x, 1)
        data = dist.to_json(ctx)
        back = PatternDistribution.from_json(ctx, data)
        assert l1_distance(dist, back) == 0

    @given(st.one_of(st.fractions(), st.floats(allow_nan=False)))
    @settings(max_examples=200)
    def test_prob_codec_round_trip(self, x):
        # st.floats draws subnormals; the JSON text must carry them too
        for back in (read_prob(write_prob(x)), read_prob(json.loads(json.dumps(write_prob(x))))):
            assert back == x and type(back) is type(x)

    def test_prob_codec_round_trips_the_smallest_subnormal(self):
        assert read_prob(write_prob(5e-324)) == 5e-324

    def test_rejects_bad_sum(self, ctx):
        with pytest.raises(InputError):
            PatternDistribution(ctx.ball(0), {(0,): 0.7})

    def test_exact_total_must_be_exactly_one(self, ctx):
        off = Fraction(1, 10**14)
        with pytest.raises(InputError, match="probabilities sum to"):
            PatternDistribution(ctx.ball(0), {(0,): Fraction(1, 2) + off, (1,): Fraction(1, 2)})
        with pytest.raises(InputError, match="negative probability"):
            PatternDistribution(ctx.ball(0), {(0,): Fraction(1) + off, (1,): -off})
        # a float total keeps its rounding slack, and a NaN fails it
        PatternDistribution(ctx.ball(0), {(0,): 0.5 + 1e-14, (1,): 0.5})
        with pytest.raises(InputError, match="probabilities sum to"):
            PatternDistribution(ctx.ball(0), {(0,): float("nan"), (1,): 0.5})

    def _ball_dist(self, ctx):
        from finvariant import marginal_distribution

        w = bernoulli_weight({"0": Fraction(1, 3), "1": Fraction(2, 3)}, 2)
        return marginal_distribution(w, ctx.ball(1))

    def test_to_json_matches_per_entry_formatting(self, ctx):
        dist = self._ball_dist(ctx)
        entries, probs = [], dist.probs
        for key in sorted(probs, key=repr):
            p = probs[key]
            pattern = {ctx.format(w): key[k] for k, w in enumerate(dist.window)}
            entries.append({"pattern": pattern, "p": {"num": p.numerator, "den": p.denominator}})
        data = dist.to_json(ctx)
        assert data == {"window_radius": 1, "entries": entries}
        # same key order inside every entry, so the json text is the same too
        assert [list(e["pattern"]) for e in data["entries"]] == [list(e["pattern"]) for e in entries]
        back = PatternDistribution.from_json(ctx, data)
        assert back.window == dist.window and back.probs == dist.probs

    def test_from_json_reads_any_key_order(self, ctx):
        dist = self._ball_dist(ctx)
        data = dist.to_json(ctx)
        for k, entry in enumerate(data["entries"]):
            items = list(entry["pattern"].items())
            entry["pattern"] = dict(items[k % len(items):] + items[: k % len(items)])
        back = PatternDistribution.from_json(ctx, data)
        assert back.probs == dist.probs

    def test_from_json_rejects_an_entry_missing_a_word(self, ctx):
        data = self._ball_dist(ctx).to_json(ctx)
        del data["entries"][-1]["pattern"]["B"]
        with pytest.raises(InputError, match="does not cover"):
            PatternDistribution.from_json(ctx, data)

    def test_from_json_rejects_a_word_spelled_twice(self, ctx):
        data = {
            "window_radius": 1,
            "entries": [
                {"pattern": {"": "0", "a": "0", "A": "0", "b": "0", "B": "0"}, "p": 0.5},
                {"pattern": {"": "1", "aA": "0", "a": "1", "A": "1", "b": "1", "B": "1"}, "p": 0.5},
            ],
        }
        with pytest.raises(InputError, match="does not cover"):
            PatternDistribution.from_json(ctx, data)

    @pytest.mark.parametrize("change", ["rotated", "spelled", "extra_word", "swapped_word"])
    def test_from_json_follows_a_layout_that_changes_part_way(self, ctx, change):
        data = self._ball_dist(ctx).to_json(ctx)
        half = len(data["entries"]) // 2
        for k, entry in enumerate(data["entries"][half:], half):
            items = list(entry["pattern"].items())
            if change == "rotated":
                entry["pattern"] = dict(items[k % 3:] + items[: k % 3])
            elif change == "spelled":
                # "aA" for "" from the middle on, and back on every third entry
                entry["pattern"] = {("aA" if w == "" and k % 3 else w): x for w, x in items}
            elif k == half + 1:
                extra = {"extra_word": items + [("ab", "0")], "swapped_word": items[:-1] + [("ab", "0")]}
                entry["pattern"] = dict(extra[change])
        expected = outcome(lambda: distribution_by_entries(ctx, data))
        assert outcome(lambda: PatternDistribution.from_json(ctx, data)) == expected
        assert (expected[0] == "error") == (change in ("extra_word", "swapped_word"))

    def test_from_json_rejects_a_repeated_pattern(self, ctx):
        # the three entries sum to 1.5; the last one was once read over the first
        def entry(identity_word):
            return {"pattern": {identity_word: "0", "a": "0", "A": "0", "b": "0", "B": "0"}, "p": 0.5}

        other = {"pattern": {"": "1", "a": "1", "A": "1", "b": "1", "B": "1"}, "p": 0.5}
        for repeat in (entry(""), entry("aA")):
            data = {"window_radius": 1, "entries": [entry(""), other, repeat]}
            with pytest.raises(InputError, match="pattern .* appears twice in the distribution"):
                PatternDistribution.from_json(ctx, data)


MUTATIONS = ["none", "repeat", "zero", "negative", "negative_within_slack", "over", "over_within_slack", "under"]
# (rank, radius, kind, seed, mutation); rank 2 at radius 2 is the sparse
# golden-mean marginal of 10 657 patterns, so it takes one seed and three
# mutations
ONE_PASS_CASES = [
    (rank, radius, kind, seed, mutation)
    for rank in (1, 2)
    for radius in (1, 2)
    for kind in ("exact", "float", "mixed")
    for seed in range(1 if (rank, radius) == (2, 2) else 3)
    for mutation in (("none", "repeat", "negative") if (rank, radius) == (2, 2) else MUTATIONS)
]


class TestOnePassReader:
    """``PatternDistribution.from_json`` reads every entry in one loop and
    builds an exact marginal through the private constructor;
    ``distribution_by_entries`` builds through the validating constructor.
    Both give the same masses, total and exactness, or the same message."""

    @staticmethod
    def _marginal(rank, radius, kind, seed, mutation):
        ctx, w, window = mass_case(rank, 2 if (rank, radius) == (2, 2) else 3, radius, seed)
        dist = marginal_distribution(w, window)
        data = dist.to_json(ctx)
        entries = data["entries"]
        rng = random.Random(f"{rank}:{radius}:{kind}:{seed}:{mutation}")
        probs = [read_prob(e["p"]) for e in entries]
        # an exact file is off by one part in its total; a float one by
        # twice the slack, or by half of it
        part = Fraction(1, dist.total) if kind == "exact" else {True: 5e-13, False: 2e-12}[mutation.endswith("slack")]
        j, k = rng.sample(range(len(entries)), 2) if len(entries) > 1 else (0, 0)
        if mutation in ("over", "over_within_slack"):
            probs[j] += part
        elif mutation == "under":
            probs[j] -= part
        elif mutation.startswith("negative") and j != k:
            probs[j], probs[k] = probs[j] + probs[k] + part, -part
        elif mutation == "zero":
            # a pattern no entry shows: an unused symbol at e
            at = rng.randint(0, len(entries))
            entries.insert(at, {"pattern": dict(entries[j]["pattern"], **{"": "unused"}), "p": None})
            probs.insert(at, 0 * probs[j])
        for n, entry in enumerate(entries):
            if kind == "float" or (kind == "mixed" and n % 2):
                probs[n] = float(probs[n])
            entry["p"] = write_prob(probs[n])
            # the words in another order, or the identity spelled "aA"
            items = list(entry["pattern"].items())
            spelled = {0: items, 1: items[n % len(items):] + items[: n % len(items)],
                       2: [("aA" if word == "" else word, x) for word, x in items]}[rng.randrange(3)]
            entry["pattern"] = dict(spelled)
        if mutation == "repeat":
            twin = dict(entries[j], pattern=dict(reversed(list(entries[j]["pattern"].items()))))
            entries.insert(rng.randint(j + 1, len(entries)), twin)
        return ctx, data

    @pytest.mark.parametrize("rank,radius,kind,seed,mutation", ONE_PASS_CASES)
    def test_agrees_with_the_entry_by_entry_oracle(self, rank, radius, kind, seed, mutation):
        ctx, data = self._marginal(rank, radius, kind, seed, mutation)
        expected = outcome(lambda: distribution_by_entries(ctx, data))
        assert outcome(lambda: PatternDistribution.from_json(ctx, data)) == expected
        # an exact file has no slack
        fails = mutation in ("repeat", "over", "under", "negative") or kind == "exact" and mutation.endswith("slack")
        assert (expected[0] == "error") == fails
        if mutation == "repeat":
            assert expected[1].startswith("pattern {") and expected[1].endswith("appears twice in the distribution")

    def test_a_repeat_before_a_later_fault_is_named_first(self, ctx):
        data = self._ball_dist_json(ctx)
        data["entries"].append(dict(data["entries"][0]))
        data["entries"].append({"pattern": {"": "0"}, "p": 0.5})
        with pytest.raises(InputError, match="appears twice"):
            PatternDistribution.from_json(ctx, data)
        # the fault first: it is what a check after every entry meets first
        data["entries"][-2:] = data["entries"][-2:][::-1]
        with pytest.raises(InputError, match="does not cover"):
            PatternDistribution.from_json(ctx, data)

    @staticmethod
    def _ball_dist_json(ctx):
        w = bernoulli_weight({"0": Fraction(1, 3), "1": Fraction(2, 3)}, 2)
        return marginal_distribution(w, ctx.ball(1)).to_json(ctx)
