"""Word arithmetic, shortlex balls, and tree geometry."""

import random

import pytest
from hypothesis import given, strategies as st

from finvariant import FreeGroupCtx, InputError, ResourceCapError, inv, mul, reduce_word
from finvariant.freegroup import IDENTITY, MAX_BALL_LETTERS, sort_words, word_sort_key

from paper_objects import past_window


@pytest.fixture(scope="module")
def ctx():
    return FreeGroupCtx(2)


letters_r2 = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=30)


class TestReduce:
    def test_cancellation(self, ctx):
        assert ctx.format(ctx.parse("abB")) == "a"

    def test_empty_is_identity(self, ctx):
        assert ctx.parse("") == IDENTITY

    def test_full_cancellation(self, ctx):
        assert ctx.parse("aA") == IDENTITY

    def test_unknown_generator(self, ctx):
        with pytest.raises(InputError):
            ctx.parse("ax")
        with pytest.raises(InputError):
            reduce_word([0])

    @given(letters_r2)
    def test_idempotent(self, letters):
        once = reduce_word(letters)
        assert reduce_word(once) == once

    @given(letters_r2)
    def test_no_adjacent_inverses(self, letters):
        word = reduce_word(letters)
        assert all(word[i] != -word[i + 1] for i in range(len(word) - 1))


class TestGroupOps:
    def test_mul_example(self, ctx):
        assert ctx.format(mul(ctx.parse("ab"), ctx.parse("Ba"))) == "aa"

    def test_inv_example(self, ctx):
        assert ctx.format(inv(ctx.parse("ab"))) == "BA"

    def test_length_example(self, ctx):
        assert len(ctx.parse("aBa")) == 3

    @given(letters_r2)
    def test_mul_inverse_is_identity(self, letters):
        g = reduce_word(letters)
        assert mul(g, inv(g)) == IDENTITY
        assert mul(inv(g), g) == IDENTITY

    @given(letters_r2, letters_r2)
    def test_triangle_inequality(self, l1, l2):
        g, h = reduce_word(l1), reduce_word(l2)
        assert len(mul(g, h)) <= len(g) + len(h)

    @given(letters_r2)
    def test_inverse_preserves_length(self, letters):
        g = reduce_word(letters)
        assert len(inv(g)) == len(g)

    def test_bulk_randomized_group_laws(self, ctx):
        # the spec-level bulk check: >= 10^4 random words
        rng = random.Random(99)
        letters = [1, -1, 2, -2]
        for _ in range(10_000):
            g = reduce_word(rng.choices(letters, k=rng.randint(0, 12)))
            h = reduce_word(rng.choices(letters, k=rng.randint(0, 12)))
            assert mul(g, inv(g)) == IDENTITY
            assert reduce_word(g) == g
            assert len(mul(g, h)) <= len(g) + len(h)


def brute_ball(rank: int, radius: int) -> set:
    """Independent enumeration: grow words letter by letter, reduce, dedupe."""
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    out = {IDENTITY}
    frontier = {IDENTITY}
    for _ in range(radius):
        nxt = set()
        for w in frontier:
            for letter in letters:
                r = reduce_word(w + (letter,))
                if r not in out:
                    nxt.add(r)
        out |= nxt
        frontier = nxt
    return out


class TestBall:
    def test_radius_one_r2(self, ctx):
        assert [ctx.format(w) for w in ctx.ball(1)] == ["", "a", "A", "b", "B"]

    def test_radius_two_size_r2(self, ctx):
        assert len(ctx.ball(2)) == 17

    def test_r1_radius_three(self):
        r1 = FreeGroupCtx(1)
        assert len(r1.ball(3)) == 7

    @pytest.mark.parametrize("rank,radius", [(1, 4), (2, 3), (3, 2), (4, 2)])
    def test_matches_brute_force_and_formula(self, rank, radius):
        ctx = FreeGroupCtx(rank)
        ball = ctx.ball(radius)
        assert set(ball) == brute_ball(rank, radius)
        assert len(ball) == ctx.ball_size(radius)

    @pytest.mark.parametrize("rank", range(1, 27))
    def test_the_letter_cap_refuses_every_ball_of_more_than_a_million_words(self, rank):
        # in closed form: at the least radius past a million words, words
        # times radius already pass the letter cap, and both grow with radius
        ctx = FreeGroupCtx(rank)
        radius = 0
        while ctx.ball_size(radius) <= 10**6:
            radius += 1
        assert ctx.ball_size(radius) * radius > MAX_BALL_LETTERS

    def test_at_rank_1_the_letter_cap_binds(self):
        # 3161 words of at most 1580 letters fit under five million; 3163 of 1581 do not
        ctx = FreeGroupCtx(1)
        assert len(ctx.ball(1580)) == 3161
        with pytest.raises(ResourceCapError, match="may exceed five million letters"):
            ctx.ball(1581)

    def test_shortlex_order(self, ctx):
        ball = ctx.ball(3)
        keys = [word_sort_key(w) for w in ball]
        assert keys == sorted(keys)
        assert len(set(ball)) == len(ball)

    def test_nested(self, ctx):
        assert set(ctx.ball(1)) <= set(ctx.ball(2)) <= set(ctx.ball(3))

    def test_equal_contexts_share_the_tables(self):
        assert FreeGroupCtx(2).ball(3) is FreeGroupCtx(2).ball(3)
        assert FreeGroupCtx(2).ball_index(3) is FreeGroupCtx(2).ball_index(3)
        assert FreeGroupCtx(2).ball_tree(3) is FreeGroupCtx(2).ball_tree(3)

    @pytest.mark.parametrize("rank,radius", [(1, 0), (1, 3), (2, 0), (2, 3), (3, 2)])
    def test_ball_index_and_tree_agree(self, rank, radius):
        ctx = FreeGroupCtx(rank)
        ball, index, tree = ctx.ball(radius), ctx.ball_index(radius), ctx.ball_tree(radius)
        assert [word for word, _, _ in tree] == list(ball)
        assert index == {w: k for k, w in enumerate(ball)}
        assert tree[0] == ((), -1, 0)
        for word, parent, letter in tree[1:]:
            assert word == ball[parent] + (letter,)

    @pytest.mark.parametrize("table", ["ball", "ball_index", "ball_tree"])
    def test_negative_radius_raises_on_every_call(self, ctx, table):
        # the cache keeps no failure, so a repeat raises again
        for _ in range(2):
            with pytest.raises(InputError, match="radius"):
                getattr(ctx, table)(-1)


def brute_past(ctx, g1, g2, m):
    """Oracle: BFS geodesics in the left Cayley tree restricted to the ball."""
    ball = ctx.ball(m)

    def left_neighbors(g):
        return [reduce_word((letter,) + g) for letter in ctx.letters]

    def geodesic_passes_through(f):
        # BFS from f to g1 in the (infinite) left tree; unique path in a tree
        parent = {f: None}
        queue = [f]
        while queue:
            cur = queue.pop(0)
            if cur == g1:
                break
            for nb in left_neighbors(cur):
                if nb not in parent:
                    parent[nb] = cur
                    queue.append(nb)
        node, path = g1, []
        while node is not None:
            path.append(node)
            node = parent[node]
        return g2 in path

    return {f for f in ball if geodesic_passes_through(f)}


class TestPastWindow:
    def test_behind_a(self, ctx):
        assert [ctx.format(w) for w in past_window(ctx, (), ctx.parse("a"), 1)] == ["a"]

    def test_derived_opposite(self, ctx):
        got = {ctx.format(w) for w in past_window(ctx, ctx.parse("a"), (), 1)}
        assert got == {"", "A", "b", "B"}

    def test_r1_halfline(self):
        r1 = FreeGroupCtx(1)
        got = {r1.format(w) for w in past_window(r1, (), r1.parse("a"), 2)}
        assert got == {"a", "aa"}

    def test_equal_endpoints_rejected(self, ctx):
        with pytest.raises(InputError):
            past_window(ctx, (), (), 1)

    def test_matches_bfs_oracle(self, ctx):
        rng = random.Random(4)
        ball = ctx.ball(2)
        for _ in range(20):
            g1, g2 = rng.sample(ball, 2)
            assert set(past_window(ctx, g1, g2, 2)) == brute_past(ctx, g1, g2, 2)

    def test_partition_over_neighbors(self, ctx):
        # Past(g1; g2) over left-tree neighbors g2 of g1, plus {g1}, covers the
        # ball disjointly
        for m in (1, 2):
            ball = ctx.ball(m)
            for g1 in [(), ctx.parse("a"), ctx.parse("ab")]:
                if g1 not in set(ball):
                    continue
                neighbors = [reduce_word((letter,) + g1) for letter in ctx.letters]
                pieces = [
                    set(past_window(ctx, g1, g2, m))
                    for g2 in neighbors
                    if g2 in set(ball)
                ]
                pieces.append({g1})
                union = set().union(*pieces)
                assert union == set(ball)
                assert sum(len(p) for p in pieces) == len(ball)


class TestCtxValidation:
    def test_rank_zero_rejected(self):
        with pytest.raises(InputError):
            FreeGroupCtx(0)

    def test_rank_beyond_the_letters_rejected(self):
        FreeGroupCtx(26)
        with pytest.raises(InputError):
            FreeGroupCtx(27)

    def test_sort_words(self, ctx):
        ws = [ctx.parse("ab"), (), ctx.parse("B"), ctx.parse("a")]
        assert [ctx.format(w) for w in sort_words(ws)] == ["", "a", "B", "ab"]
