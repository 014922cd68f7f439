"""Weights, tree-factorized pattern probabilities, entropy functional, and
the weight toolbox (rationalize, markovize).

Derived expectations are computed by test-local oracles: a classical chain
entropy rate with an exact stationary solve, direct closed-form window
probabilities, the entropy functional from enumerated window marginals, and
brute-force sums.
"""

import importlib.util
import json
import math
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given, settings, strategies as st

from finvariant import (
    Automorphism,
    ConstructionError,
    EntropyValue,
    F_value,
    FreeGroupCtx,
    InputError,
    Pattern,
    PatternDistribution,
    ResourceCapError,
    Weight,
    WeightError,
    marginal_distribution,
    markovize,
    rationalize_weight,
    shannon_entropy,
    weight_distance,
)
from finvariant.cli import main
from finvariant.freegroup import mul, sort_words
from finvariant.shift import PROB_TOL
from finvariant.weights import _factor, _integer_transport, _round_vertex, pattern_symbol_name

from paper_objects import (
    F_coefficients,
    balance_by_projection,
    bernoulli_weight,
    empirical_distribution,
    linear_combination,
    one_site_law,
    pattern_probability,
    read_prob,
    twisted_F,
    window_coefficients,
)
from test_package_surface import PACKAGE

CTX2 = FreeGroupCtx(2)
CTX1 = FreeGroupCtx(1)


# ---------------------------------------------------------------------------
# generators and oracles
# ---------------------------------------------------------------------------


def reversible_weight(rank, symbols, rng, pi=None):
    """Float weight with symmetric edge matrices sharing one stationary
    vector; balanced by construction."""
    k = len(symbols)
    if pi is None:
        raw = [rng.uniform(0.2, 1.0) for _ in range(k)]
        total = sum(raw)
        pi = [x / total for x in raw]
    edge = {}
    for i in range(1, rank + 1):
        off = {}
        for a in range(k):
            for b in range(a + 1, k):
                off[(a, b)] = rng.uniform(0.0, min(pi[a], pi[b]) / k)
        for a in range(k):
            row_off = sum(off.get((min(a, b), max(a, b)), 0.0) for b in range(k) if b != a)
            edge[(symbols[a], symbols[a], i)] = pi[a] - row_off
            for b in range(a + 1, k):
                edge[(symbols[a], symbols[b], i)] = off[(a, b)]
                edge[(symbols[b], symbols[a], i)] = off[(a, b)]
    return Weight.from_tables(rank, tuple(symbols), dict(zip(symbols, pi)), edge)


def solve_stationary_exact(P, symbols):
    """Stationary row vector of an exact transition matrix by Gaussian
    elimination over the rationals."""
    k = len(symbols)
    # unknowns pi_0..pi_{k-1}: pi (P - I) = 0 plus sum = 1; drop one equation
    rows = []
    for j in range(k - 1):
        rows.append([P[(symbols[i], symbols[j])] - (1 if i == j else 0) for i in range(k)] + [Fraction(0)])
    rows.append([Fraction(1)] * k + [Fraction(1)])
    # forward elimination
    for col in range(k):
        pivot = next(r for r in range(col, k) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv_p = 1 / rows[col][col]
        rows[col] = [x * inv_p for x in rows[col]]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return {symbols[i]: rows[i][k] for i in range(k)}


def random_exact_chain_weight(symbols, rng):
    """Exact rank-1 weight from a random rational transition matrix and its
    exact stationary vector."""
    P = {}
    for a in symbols:
        raw = [rng.randint(1, 9) for _ in symbols]
        total = sum(raw)
        for b, x in zip(symbols, raw):
            P[(a, b)] = Fraction(x, total)
    pi = solve_stationary_exact(P, symbols)
    vertex = dict(pi)
    edge = {(a, b, 1): pi[a] * P[(a, b)] for a in symbols for b in symbols}
    return Weight.from_tables(1, tuple(symbols), vertex, edge)


def entropy_rate_oracle(w: Weight) -> float:
    """Independent classical formula: h = -sum_a pi_a sum_b P(a,b) ln P(a,b),
    with pi recomputed from the transition matrix, not read off the weight."""
    symbols = w.alphabet
    P = {}
    for a in symbols:
        va = w.vertex_prob(a)
        for b in symbols:
            P[(a, b)] = Fraction(w.edge_prob(a, b, 1)) / Fraction(va)
    pi = solve_stationary_exact(P, symbols)
    for a in symbols:
        assert pi[a] == Fraction(w.vertex_prob(a))
    h = 0.0
    for a in symbols:
        for b in symbols:
            p = float(P[(a, b)])
            if p > 0:
                h -= float(pi[a]) * p * math.log(p)
    return h


def enumerated_entropy(w: Weight, window) -> EntropyValue:
    return shannon_entropy(marginal_distribution(w, window))


def chain_rule_entropy(w: Weight, window) -> EntropyValue:
    """The window entropy from the chain rule's integer coefficients."""
    return linear_combination(list(zip(window_coefficients(window, w.rank), w.entropies)))


def enumerated_F_value(ctx: FreeGroupCtx, w: Weight, radius: int) -> EntropyValue:
    """The functional at join radius ``radius`` from enumerated window
    marginals, the oracle for ``F_value``: (1 - 2r) H(marginal on the ball)
    + sum_i H(marginal on ball union s_i ball).  Exact for an exact weight."""
    ball = ctx.ball(radius)
    terms = [(1 - 2 * ctx.rank, enumerated_entropy(w, ball))]
    for i in range(1, ctx.rank + 1):
        union = set(ball) | {mul((i,), g) for g in ball}
        terms.append((1, enumerated_entropy(w, union)))
    return linear_combination(terms)


def fraction_marginal(w: Weight, window) -> dict:
    """The window marginal by the prefix-tree walk in the weight's own
    numbers, one Fraction (or float) product per pattern: the oracle for
    the integer walk.  A float weight's factor is (prob * pair) / W(a)."""
    window = sort_words(window)
    index = {g: k for k, g in enumerate(window)}
    edges = [(index[g[:-1]], g[-1]) for g in window[1:]]
    probs, values = {}, [None] * len(window)

    def extend(k, prob):
        if k == len(window):
            probs[tuple(values)] = prob
            return
        parent, letter = edges[k - 1]
        a, i = values[parent], abs(letter)
        for sym in w.alphabet:
            pair = w.edge_prob(a, sym, i) if letter > 0 else w.edge_prob(sym, a, i)
            if pair:
                values[k] = sym
                extend(k + 1, prob * pair / w.vertex_prob(a))

    for sym in w.alphabet:
        if w.vertex_prob(sym):
            values[0] = sym
            extend(1, w.vertex_prob(sym))
    return probs


def fraction_markovize(ctx: FreeGroupCtx, window, probs: dict) -> Weight:
    """``markovize`` summing the probabilities as given, one Fraction (or
    float) add per pattern and edge: the oracle for the integer sums, in
    the same order, so a float sum has the same rounding.  The symbols are
    those the identity shows with nonzero mass; a pattern of nonzero mass
    that shows another at a read word raises, one of zero mass is left out."""
    inner = ctx.ball(len(window[-1]) - 1)
    col = {g: k for k, g in enumerate(window)}
    base = sorted({key[col[()]] for key, p in probs.items() if p}, key=repr)
    names = {key: pattern_symbol_name(ctx, inner, key) for key in iter_product(base, repeat=len(inner))}
    vertex, edge = {}, {}
    for key, p in probs.items():
        read = [tuple(key[col[mul((i,), g) if i else g]] for g in inner) for i in range(ctx.rank + 1)]
        if not all(r in names for r in read):
            if p:
                raise InputError("marginals are not shift-invariant")
            continue
        c = names[read[0]]
        vertex[c] = vertex.get(c, 0) + p
        for i in range(1, ctx.rank + 1):
            e = (c, names[read[i]], i)
            edge[e] = edge.get(e, 0) + p
    return Weight.from_tables(ctx.rank, tuple(names.values()), vertex, edge)


def recomputing_transport(w: Weight, i: int, counts: dict, n_total: int):
    """``_integer_transport`` re-adding a row or column at every test, as it
    did before it kept running sums: the oracle for those sums.  Returns
    (matrix, certificate, row trims, column trims)."""
    alpha = list(w.alphabet)
    support = {(a, b): p for (a, b), p in w.laws[i].probs.items() if p > 0}
    mat = {(a, b): min(int(Fraction(p) * n_total), counts[a], counts[b]) for (a, b), p in support.items()}

    def row_sum(a):
        return sum(mat.get((a, b), 0) for b in alpha)

    def col_sum(b):
        return sum(mat.get((a, b), 0) for a in alpha)

    row_trims = col_trims = 0
    for a in alpha:
        while row_sum(a) > counts[a]:
            b = max((x for x in alpha if mat.get((a, x), 0) > 0), key=lambda x: mat[(a, x)])
            mat[(a, b)] -= 1
            row_trims += 1
    for b in alpha:
        while col_sum(b) > counts[b]:
            a = max((x for x in alpha if mat.get((x, b), 0) > 0), key=lambda x: mat[(x, b)])
            mat[(a, b)] -= 1
            col_trims += 1
    while True:
        deficit_rows = [a for a in alpha if row_sum(a) < counts[a]]
        if not deficit_rows:
            return mat, None, row_trims, col_trims
        parent = {("r", deficit_rows[0]): None}
        queue = [("r", deficit_rows[0])]
        end = None
        while queue and end is None:
            kind, node = queue.pop(0)
            if kind == "r":
                for b in alpha:
                    if (node, b) in support and ("c", b) not in parent:
                        parent[("c", b)] = ("r", node)
                        if col_sum(b) < counts[b]:
                            end = ("c", b)
                            break
                        queue.append(("c", b))
            else:
                for a in alpha:
                    if mat.get((a, node), 0) > 0 and ("r", a) not in parent:
                        parent[("r", a)] = ("c", node)
                        queue.append(("r", a))
        if end is None:
            rows = sorted(str(n) for k, n in parent if k == "r")
            cols = sorted(str(n) for k, n in parent if k == "c")
            certificate = (
                f"generator {i}: rows {{{', '.join(rows)}}} can only reach "
                f"columns {{{', '.join(cols)}}} whose targets are saturated"
            )
            return None, certificate, row_trims, col_trims
        node = end
        while parent[node] is not None:
            prev = parent[node]
            if node[0] == "c":
                mat[(prev[1], node[1])] = mat.get((prev[1], node[1]), 0) + 1
            else:
                mat[(node[1], prev[1])] -= 1
            node = prev


def bits(mapping) -> dict:
    """A mapping's values with their types, floats by their bits."""
    return {k: (type(v), v.hex() if isinstance(v, float) else v) for k, v in mapping.items()}


def law_bits(w: Weight) -> list:
    """``bits`` of each law's probabilities."""
    return [bits(law.probs) for law in w.laws]


def tables(w: Weight) -> tuple[dict, dict]:
    """The weight's vertex table {a: p} and edge table {(a, b, i): p} of
    probabilities, as ``Weight.from_tables`` reads them."""
    vertex = {a: p for (a,), p in w.laws[0].probs.items()}
    edge = {(a, b, i): p for i, law in enumerate(w.laws[1:], 1) for (a, b), p in law.probs.items()}
    return vertex, edge


def table_check(rank, alphabet, vertex, edge) -> bool:
    """The check a weight made of its vertex and edge tables before it held
    laws: the oracle for ``Weight.from_tables``.  Entries in [0, 1],
    balanced and normalized, no positive edge at a zero-weight symbol;
    exactly when every entry is rational, else within ``PROB_TOL`` everywhere.
    Raises ``WeightError``, or returns whether the tables are exact."""

    def vertex_prob(a):
        return vertex.get(a, 0)

    def edge_prob(a, b, i):
        return edge.get((a, b, i), 0)

    entries = list(vertex.values()) + list(edge.values())
    exact = all(isinstance(x, (int, Fraction)) for x in entries)
    slack = 0 if exact else PROB_TOL
    for a in vertex:
        if a not in alphabet:
            raise WeightError(f"vertex symbol {a!r} not in alphabet")
    for a, b, i in edge:
        if a not in alphabet or b not in alphabet:
            raise WeightError(f"edge symbols ({a!r},{b!r}) not in alphabet")
        if not 1 <= i <= rank:
            raise WeightError(f"edge generator index {i} out of range")
    for x in entries:
        if not -slack <= x <= 1 + slack:
            raise WeightError(f"weight entry {x} outside [0, 1]")
    total = sum(vertex_prob(a) for a in alphabet)
    if abs(total - 1) > slack:
        raise WeightError(f"vertex weights sum to {total}, not 1")
    for i in range(1, rank + 1):
        for a in alphabet:
            row = sum(edge_prob(a, b, i) for b in alphabet)
            col = sum(edge_prob(b, a, i) for b in alphabet)
            if abs(row - vertex_prob(a)) > slack or abs(col - vertex_prob(a)) > slack:
                raise WeightError(f"balance fails at symbol {a!r}, generator {i}")
        total = sum(edge_prob(a, b, i) for a in alphabet for b in alphabet)
        if abs(total - 1) > slack:
            raise WeightError(f"generator {i} edge weights sum to {total}, not 1")
    for (a, b, i), p in edge.items():
        if p and not (vertex_prob(a) and vertex_prob(b)):
            raise WeightError("zero vertex weight but a positive edge")
    return exact


def verdict(build) -> str:
    """"accept", or the name of the error type ``build()`` raises."""
    try:
        build()
    except Exception as exc:  # the type is the verdict
        return type(exc).__name__
    return "accept"


# ---------------------------------------------------------------------------
# weight construction and validation
# ---------------------------------------------------------------------------


class TestWeightValidation:
    def test_bernoulli_uniform(self):
        w = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2)
        assert w.edge_prob("0", "1", 1) == Fraction(1, 4)

    def test_bernoulli_point_mass(self):
        w = bernoulli_weight({"0": Fraction(1), "1": Fraction(0)}, 2)
        assert w.vertex_prob("0") == 1
        assert w.edge_prob("1", "1", 1) == 0

    def test_bernoulli_third(self):
        w = bernoulli_weight({"0": Fraction(1, 3), "1": Fraction(2, 3)}, 1)
        assert w.edge_prob("0", "1", 1) == Fraction(2, 9)

    def test_negative_base_rejected(self):
        with pytest.raises(WeightError):
            bernoulli_weight({"0": -0.25, "1": 1.25}, 1)

    def test_perturbation_rejected(self):
        rng = random.Random(0)
        w = reversible_weight(2, ("0", "1"), rng)
        vertex, edge = tables(w)
        edge[("0", "1", 1)] += 1e-6
        with pytest.raises(WeightError):
            Weight.from_tables(2, w.alphabet, vertex, edge)

    def test_float_slack_is_prob_tol(self):
        # a float weight may miss balance by 1e-13, not by 1e-11
        def diagonal(offset):
            vertex = {"0": 0.5 + offset, "1": 0.5}
            return Weight.from_tables(1, ("0", "1"), vertex, {("0", "0", 1): 0.5 + offset, ("1", "1", 1): 0.5})

        assert not diagonal(1e-13).is_exact
        with pytest.raises(WeightError, match="vertex law: probabilities sum to"):
            diagonal(1e-11)

    def test_float_edge_total_is_checked(self):
        # each row and column misses its vertex weight by 0.9e-12, within
        # the slack, but the generator's edge law misses 1 by 2.7e-12, which
        # the entropy of that law rejects: the weight must fail when built
        vertex = {"0": 0.25, "1": 0.25, "2": 0.5}
        edge = {(a, a, 1): p + 0.9e-12 for a, p in vertex.items()}
        with pytest.raises(WeightError, match="generator 1 pair law: probabilities sum to"):
            Weight.from_tables(1, tuple(vertex), vertex, edge)
        edge = {(a, a, 1): p + 0.2e-12 for a, p in vertex.items()}
        h_vertex, h_edge = Weight.from_tables(1, tuple(vertex), vertex, edge).entropies
        assert float(h_edge) == pytest.approx(float(h_vertex))

    def test_zero_vertex_with_edge_rejected(self):
        with pytest.raises(WeightError):
            Weight.from_tables(
                1,
                ("0", "1"),
                {"0": 1.0, "1": 0.0},
                {("0", "0", 1): 0.9, ("0", "1", 1): 0.1, ("1", "0", 1): 0.1},
            )

    def test_laws_sit_on_their_windows(self):
        w = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2)
        for laws in (w.laws[:2], (w.laws[0], w.laws[2], w.laws[1]), (w.laws[1], w.laws[1], w.laws[2])):
            with pytest.raises(WeightError, match="one pair law per generator"):
                Weight(2, w.alphabet, laws)
        assert Weight(2, w.alphabet, w.laws).entropies == w.entropies

    def test_json_round_trip(self):
        w = bernoulli_weight({"0": Fraction(1, 3), "1": Fraction(2, 3)}, 2)
        back = Weight.from_json(w.to_json())
        assert weight_distance(w, back) == 0
        assert back.is_exact


def perturbed_tables(rng) -> tuple:
    """(rank, alphabet, vertex, edge) of a random balanced weight, with every
    entry rational, every entry a float, or each one either, and then one
    entry moved by a rational or float step, or two entries of a generator
    traded, or nothing changed."""
    rank = rng.randint(1, 3)
    w = circulation_weight(rank, ("x", "y", "z")[: rng.randint(2, 3)], rng)
    vertex, edge = tables(w)
    kind = rng.choice(["exact", "float", "mixed"])
    for table in (vertex, edge):
        for key, p in table.items():
            if kind == "float" or (kind == "mixed" and rng.random() < 0.5):
                table[key] = float(p)
    change = rng.choice(["none", "step", "trade"])
    if change == "step":
        table = rng.choice([vertex, edge])
        key = rng.choice(sorted(table, key=repr))
        step = rng.choice([Fraction(1, rng.randint(2, 10**4)), 1e-13, 1e-11, 1e-6])
        table[key] += rng.choice([1, -1]) * step
    elif change == "trade":
        i = rng.randint(1, rank)
        keys = sorted((k for k in edge if k[2] == i), key=repr)
        if len(keys) > 1:
            a, b = rng.sample(keys, 2)
            step = min(edge[a], edge[b]) / 2
            edge[a], edge[b] = edge[a] - step, edge[b] + step
    return rank, w.alphabet, vertex, edge


# (rank, alphabet, vertex, edge): the valid one is accepted, the rest raise
HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
TABLE_CASES = {
    "balance_off_by_one_over_den": (
        1, ("0", "1"), {"0": HALF, "1": HALF},
        {("0", "0", 1): HALF + Fraction(1, 10**9), ("1", "1", 1): HALF - Fraction(1, 10**9)},
    ),
    # below float resolution: only exact arithmetic sees it
    "balance_off_by_1e-30": (
        1, ("0", "1"), {"0": HALF, "1": HALF},
        {("0", "0", 1): HALF + Fraction(1, 10**30), ("1", "1", 1): HALF - Fraction(1, 10**30)},
    ),
    "balance_off_by_1e-11": (
        1, ("0", "1"), {"0": 0.5, "1": 0.5}, {("0", "0", 1): 0.5 + 1e-11, ("1", "1", 1): 0.5 - 1e-11},
    ),
    "nan": (1, ("0", "1"), {"0": float("nan"), "1": HALF}, {("0", "0", 1): float("nan"), ("1", "1", 1): HALF}),
    "entry_beyond_float_range": (1, ("0", "1"), {"0": 10**400, "1": HALF}, {("0", "0", 1): HALF, ("1", "1", 1): HALF}),
    "entry_above_one_beside_negatives": (
        1, ("0", "1", "2"), {"0": 1 + 2e-12, "1": -1e-12, "2": -1e-12},
        {("0", "0", 1): 1 + 2e-12, ("1", "1", 1): -1e-12, ("2", "2", 1): -1e-12},
    ),
    "positive_pair_at_a_zero_weight_symbol": (
        1, ("0", "1"), {"0": 1.0, "1": 0.0}, {("0", "0", 1): 1.0 - 1e-13, ("0", "1", 1): 1e-13},
    ),
    # balanced on the alphabet: only the alphabet check rejects these
    "vertex_symbol_outside_the_alphabet": (
        1, ("0",), {"0": HALF, "x": HALF}, {("0", "0", 1): HALF, ("x", "x", 1): HALF},
    ),
    "edge_symbol_outside_the_alphabet": (
        1, ("0", "1"), {"0": HALF, "1": HALF}, {("0", "0", 1): HALF, ("1", "1", 1): HALF, ("0", "x", 1): 0},
    ),
    "generator_index_out_of_range": (
        1, ("0", "1"), {"0": HALF, "1": HALF}, {("0", "0", 1): HALF, ("1", "1", 1): HALF, ("0", "1", 2): 0},
    ),
    "valid_golden_mean": (
        2, ("0", "1"), {"0": 2 * THIRD, "1": THIRD},
        {(a, b, i): THIRD for i in (1, 2) for a, b in ("00", "01", "10")},
    ),
}


class TestTableCheck:
    """``Weight.from_tables`` against the check on the tables it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_tables_get_the_old_verdict(self, rng):
        rank, alphabet, vertex, edge = perturbed_tables(rng)
        old = verdict(lambda: table_check(rank, alphabet, vertex, edge))
        assert verdict(lambda: Weight.from_tables(rank, alphabet, vertex, edge)) == old
        if old == "accept":
            w = Weight.from_tables(rank, alphabet, vertex, edge)
            assert w.is_exact == table_check(rank, alphabet, vertex, edge)
            assert all(w.vertex_prob(a) == vertex.get(a, 0) for a in alphabet)
            assert all(w.edge_prob(a, b, i) == edge.get((a, b, i), 0) for a, b, i in edge)

    @pytest.mark.parametrize("name", sorted(TABLE_CASES))
    def test_corner_gets_the_old_verdict(self, name):
        rank, alphabet, vertex, edge = TABLE_CASES[name]
        old = verdict(lambda: table_check(rank, alphabet, vertex, edge))
        assert old == ("accept" if name.startswith("valid") else "WeightError")
        assert verdict(lambda: Weight.from_tables(rank, alphabet, vertex, edge)) == old

    def test_a_rational_law_is_checked_exactly_inside_a_float_weight(self):
        # the tables were checked with one slack for the whole weight, so a
        # float anywhere let a rational entry miss by 1e-14; each law now
        # has its own: generator 2's floats leave the vertex law and
        # generator 1's pair law exact
        tiny = Fraction(1, 10**14)
        floats = {("0", "0", 2): 0.5, ("1", "1", 2): 0.5}
        off_total = ({"0": HALF + tiny, "1": HALF}, {("0", "0", 1): HALF + tiny, ("1", "1", 1): HALF})
        off_balance = ({"0": HALF, "1": HALF}, {("0", "0", 1): HALF + tiny, ("1", "1", 1): HALF - tiny})
        cases = ((off_total, "vertex law: probabilities sum to"), (off_balance, "balance fails"))
        for (vertex, edge), message in cases:
            edge = {**edge, **floats}
            assert table_check(2, ("0", "1"), vertex, edge) is False
            with pytest.raises(WeightError, match=message):
                Weight.from_tables(2, ("0", "1"), vertex, edge)
            # with floats throughout, the slack still covers the same miss
            as_floats = {k: float(p) for k, p in edge.items()}
            Weight.from_tables(2, ("0", "1"), {a: float(p) for a, p in vertex.items()}, as_floats)

    def test_float_laws_sum_in_alphabet_major_order(self):
        # the order the tables had their entropies summed in, whatever the
        # order the tables are given in
        rng = random.Random(13)
        symbols = tuple(str(k) for k in range(12))
        w = reversible_weight(2, symbols, rng)
        vertex, edge = tables(w)
        for _ in range(5):
            keys = list(edge)
            rng.shuffle(keys)
            shuffled = Weight.from_tables(2, symbols, vertex, {key: edge[key] for key in keys})
            for i in (1, 2):
                h = 0.0
                for a in symbols:
                    for b in symbols:
                        p = edge[a, b, i]
                        h -= p * math.log(p)
                assert list(shuffled.laws[i].masses) == list(iter_product(symbols, repeat=2))
                assert float(shuffled.entropies[i]).hex() == h.hex()

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(2, 3))
    def test_laws_are_the_one_and_two_site_marginals(self, rng, rank, k):
        w = circulation_weight(rank, ("x", "y", "z")[:k], rng)
        for i, law in enumerate(w.laws):
            walked = marginal_distribution(w, ((), (i,)) if i else ((),))
            assert (walked.masses, walked.total) == ({key: m for key, m in law.masses.items() if m}, law.total)


def laws_of(rank, vertex: dict, edge: dict) -> tuple:
    """The vertex law and the pair laws of two tables, each checked only as a
    distribution, for a weight to check as a whole."""
    pairs = [{(a, b): p for (a, b, j), p in edge.items() if j == i} for i in range(1, rank + 1)]
    return (PatternDistribution(((),), {(a,): p for a, p in vertex.items()}),) + tuple(
        PatternDistribution(((), (i,)), pair) for i, pair in enumerate(pairs, 1)
    )


def weight_verdict(check) -> tuple:
    try:
        check()
    except InputError as exc:
        return type(exc).__name__, str(exc)
    return ("ok",)


class TestOnePassBalance:
    """``Weight`` checks balance from each pair law's row and column sums in
    one pass; ``balance_by_projection`` checks it through two projections.
    Both accept the same weights and refuse the others with one message."""

    @staticmethod
    def _agree(rank, alphabet, vertex, edge):
        laws = laws_of(rank, vertex, edge)
        verdict = weight_verdict(lambda: Weight(rank, alphabet, laws))
        assert verdict == weight_verdict(lambda: balance_by_projection(alphabet, laws))
        return verdict

    @pytest.mark.parametrize("seed", range(40))
    def test_random_exact_weights(self, seed):
        rng = random.Random(seed)
        rank, symbols = rng.choice([1, 2]), ("x", "y", "z", "w")[: rng.randint(2, 4)]
        w = circulation_weight(rank, symbols, rng)
        vertex = {a: w.vertex_prob(a) for a in symbols}
        edge = {(a, b, i): p for i in range(1, rank + 1) for (a, b), p in w.laws[i].probs.items()}
        move = seed % 4  # none, a pair's mass to another column, to another row, a vertex's mass
        (a, b, i), c = rng.choice(sorted(edge)), rng.choice([x for x in symbols])
        part = Fraction(1, 2 * w.laws[i].total)
        if move == 1 and c != b:
            edge[a, b, i] -= part
            edge[a, c, i] = edge.get((a, c, i), 0) + part
        elif move == 2 and c != a:
            edge[a, b, i] -= part
            edge[c, b, i] = edge.get((c, b, i), 0) + part
        elif move == 3 and c != a:
            vertex[a] -= Fraction(1, 2 * w.laws[0].total)
            vertex[c] += Fraction(1, 2 * w.laws[0].total)
        verdict = self._agree(rank, symbols, vertex, edge)
        assert (verdict == ("ok",)) == (move == 0 or c in (b if move == 1 else a,))

    @pytest.mark.parametrize("gap,ok", [(5e-13, True), (9e-13, True), (1.1e-12, False), (2e-12, False)], ids=repr)
    @pytest.mark.parametrize("where", ["column", "row", "vertex"])
    def test_float_weights_at_the_slack(self, gap, ok, where):
        w = reversible_weight(2, ("x", "y", "z"), random.Random(7))
        vertex = {a: w.vertex_prob(a) for a in w.alphabet}
        edge = {(a, b, i): p for i in (1, 2) for (a, b), p in w.laws[i].probs.items()}
        if where == "vertex":
            vertex["x"] += gap
            vertex["y"] -= gap
        else:
            edge["x", "x", 2] -= gap
            edge[("x", "y", 2) if where == "column" else ("y", "x", 2)] += gap
        assert (self._agree(2, w.alphabet, vertex, edge) == ("ok",)) == ok

    def test_a_float_margin_below_the_slack_fails_as_its_projection_did(self):
        # every entry is within the slack, but row z sums to -1.2e-12
        vertex = {"x": 0.5 + 2.5e-13, "y": 0.5 + 2.5e-13, "z": -5e-13}
        edge = {("x", "x", 1): 0.5 + 6e-13, ("y", "y", 1): 0.5 + 6e-13,
                ("z", "x", 1): -6e-13, ("z", "y", 1): -6e-13}
        assert self._agree(1, ("x", "y", "z"), vertex, edge) == ("InputError", "negative probability")

    @pytest.mark.parametrize("exact", [True, False])
    def test_a_positive_pair_at_a_zero_weight_symbol(self, exact):
        tiny = Fraction(1, 10**15) if exact else 5e-13
        half = Fraction(1, 2) if exact else 0.5
        vertex = {"x": half, "y": half, "z": 0 * half}
        edge = {("x", "x", 1): half, ("y", "y", 1): half - tiny, ("z", "z", 1): tiny}
        # an exact law cannot balance there; a float one does within the slack
        expected = "positive pair ('z', 'z')" if not exact else "balance fails at symbol 'y'"
        assert self._agree(1, ("x", "y", "z"), vertex, edge)[1].startswith(expected)

    @pytest.mark.parametrize("seed", range(12))
    def test_from_json_matches_from_tables_fed_fractions(self, seed):
        rng = random.Random(seed)
        rank = rng.choice([1, 2])
        w = golden_weight(rng) if seed % 3 == 0 else circulation_weight(rank, ("x", "y", "z")[: rng.randint(2, 3)], rng)
        data = w.to_json()
        if seed % 4 == 1:  # mixed: one edge as a float
            data["edge"][0]["p"] = float(read_prob(data["edge"][0]["p"]))
        symbol = {str(a): a for a in data["alphabet"]}
        by_fractions = Weight.from_tables(
            data["rank"], tuple(data["alphabet"]),
            {symbol[a]: read_prob(p) for a, p in data["vertex"].items()},
            {(e["from"], e["to"], e["gen"]): read_prob(e["p"]) for e in data["edge"]},
        )
        back = Weight.from_json(data)
        assert json.dumps(back.to_json(), sort_keys=True) == json.dumps(by_fractions.to_json(), sort_keys=True)
        assert back.entropies == by_fractions.entropies and back.is_exact == by_fractions.is_exact
        assert [(law.masses, law.total) for law in back.laws] == [(law.masses, law.total) for law in by_fractions.laws]


class TestWeightDistance:
    def test_zero_on_equal(self):
        w = bernoulli_weight({"0": 0.5, "1": 0.5}, 2)
        assert weight_distance(w, w) == 0

    def test_derived_four_term_sum(self):
        # direct 4-term sum: |1/4 - 1/9| + 2|1/4 - 2/9| + |1/4 - 4/9| = 7/18
        w1 = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 1)
        w2 = bernoulli_weight({"0": Fraction(1, 3), "1": Fraction(2, 3)}, 1)
        assert weight_distance(w1, w2) == Fraction(7, 18)

    def test_metric_properties(self):
        rng = random.Random(5)
        ws = [reversible_weight(1, ("0", "1", "2"), rng) for _ in range(3)]
        for a in ws:
            for b in ws:
                assert weight_distance(a, b) == pytest.approx(weight_distance(b, a))
        d01 = weight_distance(ws[0], ws[1])
        d12 = weight_distance(ws[1], ws[2])
        d02 = weight_distance(ws[0], ws[2])
        assert d02 <= d01 + d12 + 1e-12


# ---------------------------------------------------------------------------
# pattern probabilities
# ---------------------------------------------------------------------------


class TestPatternProbability:
    def test_single_vertex(self):
        w = bernoulli_weight({"0": Fraction(1, 3), "1": Fraction(2, 3)}, 2)
        assert pattern_probability(w, Pattern([()], ["1"])) == Fraction(2, 3)

    def test_single_edge(self):
        rng = random.Random(1)
        w = reversible_weight(2, ("0", "1"), rng)
        p = Pattern([(), (1,)], ["0", "1"])
        assert pattern_probability(w, p) == pytest.approx(w.edge_prob("0", "1", 1))

    def test_star_ratio(self):
        rng = random.Random(2)
        w = reversible_weight(2, ("0", "1"), rng)
        p = Pattern([(), (1,), (2,)], ["0", "1", "1"])
        expected = w.edge_prob("0", "1", 1) * w.edge_prob("0", "1", 2) / w.vertex_prob("0")
        assert pattern_probability(w, p) == pytest.approx(expected)

    def test_r1_matches_classical_chain_joint_law(self):
        rng = random.Random(3)
        w = random_exact_chain_weight(("0", "1", "2"), rng)
        P = {
            (a, b): Fraction(w.edge_prob(a, b, 1)) / Fraction(w.vertex_prob(a))
            for a in w.alphabet
            for b in w.alphabet
        }
        for symbols in [("0", "1", "2"), ("2", "2", "0"), ("1", "1", "1")]:
            p = Pattern([(), (1,), (1, 1)], list(symbols))
            chain = w.vertex_prob(symbols[0]) * P[(symbols[0], symbols[1])] * P[(symbols[1], symbols[2])]
            assert pattern_probability(w, p) == chain

    def test_translation_invariance(self):
        rng = random.Random(4)
        w = reversible_weight(2, ("0", "1"), rng)
        p = Pattern([(), (1,)], ["0", "1"])
        shifted = Pattern([(2,), (2, 1)], ["0", "1"])
        assert pattern_probability(w, p) == pytest.approx(pattern_probability(w, shifted))

    def test_disconnected_rejected(self):
        w = bernoulli_weight({"0": 0.5, "1": 0.5}, 2)
        with pytest.raises(InputError):
            pattern_probability(w, Pattern([(), (1, 1)], ["0", "1"]))

    def test_marginal_consistency_random_subtrees(self):
        # summing a leaf extension over its symbol reproduces the base pattern
        rng = random.Random(6)
        for trial in range(25):
            w = reversible_weight(2, ("0", "1"), rng)
            domain = [()]
            for _ in range(rng.randint(1, 4)):
                base = rng.choice(domain)
                letter = rng.choice(CTX2.letters)
                from finvariant.freegroup import mul

                nxt = mul(base, (letter,))
                if nxt not in domain:
                    domain.append(nxt)
            values = [rng.choice(("0", "1")) for _ in domain]
            base_pattern = Pattern(domain, values)
            base_prob = pattern_probability(w, base_pattern)
            # find a fresh leaf adjacent to the subtree
            leaf = None
            while leaf is None:
                cand_base = rng.choice(domain)
                letter = rng.choice(CTX2.letters)
                from finvariant.freegroup import mul

                cand = mul(cand_base, (letter,))
                if cand not in domain:
                    leaf = cand
            total = 0.0
            for sym in ("0", "1"):
                ext = Pattern(domain + [leaf], values + [sym])
                total += pattern_probability(w, ext)
            assert total == pytest.approx(base_prob, abs=1e-12)


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


class TestShannonEntropy:
    def test_uniform_two(self):
        assert float(shannon_entropy(one_site_law([Fraction(1, 2), Fraction(1, 2)]))) == pytest.approx(math.log(2))

    def test_point_mass(self):
        assert float(shannon_entropy(one_site_law([1, 0]))) == 0.0

    def test_quarter_three_quarter(self):
        h = float(shannon_entropy(one_site_law([0.25, 0.75])))
        assert h == pytest.approx(0.25 * math.log(4) + 0.75 * math.log(4 / 3))

    def test_exact_total_must_be_exactly_one(self):
        # the float test |total - 1| <= 1e-9 once took this for exact input
        with pytest.raises(InputError, match="probabilities sum to"):
            one_site_law([Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**10)])

    def test_float_total_keeps_its_slack(self):
        assert float(shannon_entropy(one_site_law([0.5, 0.5 + 1e-13]))) == pytest.approx(math.log(2))
        with pytest.raises(InputError, match="probabilities sum to"):
            one_site_law([0.5, 0.5 + 1e-10])

    def test_exact_equality_semantics(self):
        a = shannon_entropy(one_site_law([Fraction(1, 2), Fraction(1, 2)]))
        b = shannon_entropy(one_site_law([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]))
        assert a != b
        assert a == shannon_entropy(one_site_law([Fraction(1, 2), Fraction(1, 2)]))

    # small totals of shared prime powers, and the semiprime 1000000007 * 1000000009
    @pytest.mark.parametrize("total", [2**6 * 3**2 * 5, 2 * 3 * 5 * 7 * 11 * 13, 3**9, 1000000007 * 1000000009])
    @pytest.mark.parametrize("seed", range(25))
    def test_the_per_mass_quotients_match_the_total_factored_once(self, total, seed):
        rng = random.Random(f"{total}:{seed}")
        masses = random_exact_masses(rng, total)
        dist = PatternDistribution(((),), {(k,): m for k, m in enumerate(masses)}, total)
        assert shannon_entropy(dist).combo == total_entropy_combo(dist)

    def test_an_exact_and_a_float_value_compare_by_value(self):
        exact = shannon_entropy(one_site_law([Fraction(1, 2), Fraction(1, 2)]))
        assert exact == EntropyValue(math.log(2)) and EntropyValue(math.log(2)) == exact
        assert exact != EntropyValue(math.nextafter(math.log(2), 1))


def total_entropy_combo(dist: PatternDistribution) -> dict:
    """The exact entropy of an exact distribution from T H = T ln T -
    sum m ln m: the total and each mass factored in full, each prime's
    coefficient summed as an integer over T.  Valid wherever every mass is
    within factoring reach, so it checks the per-mass quotient route there."""
    total = dist.total
    sums = Counter({p: total * e for p, e in _factor(total)})
    for m in dist.masses.values():
        if m:
            for p, e in _factor(m):
                sums[p] -= m * e
    return {p: Fraction(s, total) for p, s in sums.items() if s}


def random_exact_masses(rng, total: int) -> list:
    """Random nonnegative masses summing to ``total``: most a random multiple
    of a random divisor of it, so they share factors with it, and some 0."""
    divisors = [d for d, _ in _factor(total)] + [1]
    masses = []
    for _ in range(rng.randint(1, 6)):
        d = rng.choice(divisors) * rng.choice([1, 1, 2, 3])
        room = (total - sum(masses)) // d
        masses.append(d * rng.randint(1, room // 2) if room > 1 and rng.random() < 0.8 else 0)
    return masses + [total - sum(masses)]


def trial_division_factor(n: int) -> tuple:
    """Prime factorization by trial division up to sqrt(n): the oracle for
    ``_factor`` (its time grows with the second-largest prime factor)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def prime_at_least(n: int) -> int:
    while trial_division_factor(n) != ((n, 1),):
        n += 1
    return n


# two primes near 1e20; their product is far beyond Pollard rho's budget
P20, Q20 = 100000000000000000039, 100000000000000000129


class TestFactor:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10**8 - 1))
    def test_matches_trial_division(self, n):
        assert _factor(n) == trial_division_factor(n)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(1, 70).map(lambda k: (2, k)),
                st.tuples(st.integers(2, 10**4).map(prime_at_least), st.integers(1, 3)),
                st.tuples(
                    st.integers(10**7 - 10**5, 10**7 + 10**5).map(prime_at_least),
                    st.integers(1, 2),
                ),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_products_of_known_primes(self, parts):
        n = 1
        expected = Counter()
        for p, e in parts:
            n *= p**e
            expected[p] += e
        # the parts are the known primes with their exponents, so every
        # part is prime and their product gives n back
        assert _factor(n) == tuple(sorted(expected.items()))

    def test_roadmap_semiprime_entropy_is_fast_and_exact(self):
        # p = 1/(p1 p2) with p1, p2 near 1e9: trial division to sqrt took 88 s
        p1, p2 = 1000000007, 1000000009
        p = Fraction(1, p1 * p2)
        _factor.cache_clear()
        t0 = time.perf_counter()
        h = shannon_entropy(one_site_law([p, 1 - p]))
        elapsed = time.perf_counter() - t0
        # H = p ln(p1 p2) + (1 - p)(ln(p1 p2) - ln(p1 p2 - 1)); the oracle
        # factors p1 p2 - 1 = 2 * 23 * 457 * 100511 * 473273711 quickly
        expected = {p1: Fraction(1), p2: Fraction(1)}
        for q, e in trial_division_factor(p1 * p2 - 1):
            expected[q] = -(1 - p) * e
        assert _factor(p1 * p2) == ((p1, 1), (p2, 1))
        assert h.combo == expected
        assert elapsed < 1.0

    def test_semiprime_of_primes_near_1e11_is_in_reach(self):
        p1, p2 = 100000000019, 100001000081
        _factor.cache_clear()
        assert _factor(p1 * p2) == ((p1, 1), (p2, 1))

    def test_denominator_out_of_reach_raises(self):
        with pytest.raises(ResourceCapError, match=str(P20 * Q20)):
            _factor(P20 * Q20)

    def test_probable_prime_past_the_exact_test_raises(self):
        big = 10**30 + 57  # prime, past the exact Miller-Rabin range
        with pytest.raises(ResourceCapError, match="Miller-Rabin"):
            _factor(big)

    def test_only_the_reduced_quotients_are_factored(self, tmp_path, capsys):
        # rank 1, four constant symbols of masses Q20, Q20 (P20 - 1), P20 and
        # P20 (Q20 - 1) over 2 P20 Q20: neither the total nor any mass is
        # within reach, but every reduced m/T is 1/(2 P20), (P20 - 1)/(2 P20),
        # 1/(2 Q20) or (Q20 - 1)/(2 Q20)
        d = 2 * P20 * Q20
        masses = {"0": Q20, "1": Q20 * (P20 - 1), "2": P20, "3": P20 * (Q20 - 1)}
        data = {
            "rank": 1,
            "alphabet": list(masses),
            "vertex": {a: {"num": m, "den": d} for a, m in masses.items()},
            "edge": [{"from": a, "to": a, "gen": 1, "p": {"num": m, "den": d}} for a, m in masses.items()],
        }
        path = tmp_path / "pq.json"
        path.write_text(json.dumps(data))
        assert main(["f-exact", "--weight", str(path)]) == 0
        assert "\nf_nats: 0\n" in capsys.readouterr().out

    def test_f_exact_out_of_reach_exits_3(self, tmp_path, capsys):
        d = P20 * Q20

        def enc(num):
            return {"num": num, "den": d}

        data = {
            "rank": 1,
            "alphabet": ["0", "1"],
            "vertex": {"0": enc(d - 1), "1": enc(1)},
            "edge": [
                {"from": "0", "to": "0", "gen": 1, "p": enc(d - 2)},
                {"from": "0", "to": "1", "gen": 1, "p": enc(1)},
                {"from": "1", "to": "0", "gen": 1, "p": enc(1)},
            ],
        }
        path = tmp_path / "far.json"
        path.write_text(json.dumps(data))
        assert main(["f-exact", "--weight", str(path)]) == 3
        assert "resource cap:" in capsys.readouterr().err


class TestFValue:
    def test_bernoulli_half_is_ln2(self):
        w = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2)
        val = F_value(w)
        assert val.is_exact
        assert float(val) == pytest.approx(math.log(2), abs=1e-15)

    def test_point_mass_zero(self):
        w = bernoulli_weight({"0": Fraction(1), "1": Fraction(0)}, 2)
        assert float(F_value(w)) == 0.0

    def test_r1_equals_entropy_rate_oracle(self):
        rng = random.Random(7)
        for _ in range(20):
            w = random_exact_chain_weight(("0", "1", "2"), rng)
            assert float(F_value(w)) == pytest.approx(
                entropy_rate_oracle(w), abs=1e-10
            )

    def test_derived_symmetric_example(self):
        # edges [[3/8, 1/8], [1/8, 3/8]] on both generators:
        # closed form f = 3 ln 2 - (3/2) ln 3, cross-checked below by a
        # test-local window enumeration at join radius 1
        w = Weight.from_tables(
            2,
            ("0", "1"),
            {"0": Fraction(1, 2), "1": Fraction(1, 2)},
            {
                (a, b, i): Fraction(3, 8) if a == b else Fraction(1, 8)
                for a in "01"
                for b in "01"
                for i in (1, 2)
            },
        )
        assert w.is_exact
        closed_form = 3 * math.log(2) - 1.5 * math.log(3)
        assert float(F_value(w)) == pytest.approx(closed_form, abs=1e-12)

        # oracle: star-window probabilities written out directly
        import itertools

        def star_prob(xe, xa, xA, xb, xB):
            e = lambda a, b, i: float(w.edge_prob(a, b, i))
            v = float(w.vertex_prob(xe))
            return e(xe, xa, 1) * e(xA, xe, 1) * e(xe, xb, 2) * e(xB, xe, 2) / v**3

        h_star = 0.0
        for combo in itertools.product("01", repeat=5):
            p = star_prob(*combo)
            if p > 0:
                h_star -= p * math.log(p)
        enumerated_star = float(shannon_entropy(marginal_distribution(w, CTX2.ball(1))))
        assert enumerated_star == pytest.approx(h_star, abs=1e-12)
        assert float(chain_rule_entropy(w, CTX2.ball(1))) == pytest.approx(h_star, abs=1e-12)
        assert enumerated_F_value(CTX2, w, 1) == F_value(w)
        assert float(enumerated_F_value(CTX2, w, 1)) == pytest.approx(closed_form, abs=1e-12)

    def test_enumerate_matches_chain(self):
        rng = random.Random(8)
        for _ in range(5):
            w = reversible_weight(2, ("0", "1"), rng)
            for rho in (0, 1):
                a = float(enumerated_F_value(CTX2, w, rho))
                b = float(F_value(w))
                assert a == pytest.approx(b, abs=1e-10)

    def test_exact_bernoulli_equals_base_entropy(self):
        rng = random.Random(9)
        for _ in range(5):
            raw = [rng.randint(1, 9) for _ in range(3)]
            total = sum(raw)
            base = {s: Fraction(x, total) for s, x in zip("abc", raw)}
            w = bernoulli_weight(base, 2)
            assert F_value(w) == shannon_entropy(one_site_law(base.values()))


    # F_value of the first four reversible 3-symbol float weights from
    # Random(40 + rank): the dot product sums (1 - 2r) H(vertex) first and
    # then H(edge_1), ..., H(edge_r), and another order moves the last bits
    # of most of these and the printed f_nats of five
    FLOAT_BITS = {
        1: (0.9552857213400174, 0.9285290753288873, 0.46605557446420454, 0.7170846209723238),
        2: (0.1633123085074908, 0.09441223107064678, 0.0871197141430109, 0.5020908154914931),
        3: (-0.19961187078387255, 0.11086180490081943, -0.011682798128244132, 0.249768511778943),
        4: (-0.9988671664839979, -0.7941610785919628, -0.006074050942292963, -0.38580927650326435),
    }

    @pytest.mark.parametrize("rank", sorted(FLOAT_BITS))
    def test_float_value_keeps_its_bits(self, rank):
        rng = random.Random(40 + rank)
        for expected in self.FLOAT_BITS[rank]:
            assert F_value(reversible_weight(rank, ("0", "1", "2"), rng)).value == expected


class TestConstancy:
    # the functional from enumerated marginals at join radius 0 and 1 is
    # F_value's formula: exactly for an exact weight, to rounding for a float one

    def test_bernoulli_constant(self):
        w = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2)
        for k in (0, 1):
            assert enumerated_F_value(CTX2, w, k) == F_value(w)

    def test_point_mass_constant(self):
        w = bernoulli_weight({"0": Fraction(1), "1": Fraction(0)}, 2)
        for k in (0, 1):
            assert enumerated_F_value(CTX2, w, k) == F_value(w)

    def test_random_float_weights(self):
        rng = random.Random(10)
        for _ in range(3):
            w = reversible_weight(2, ("0", "1"), rng)
            for k in (0, 1):
                assert float(enumerated_F_value(CTX2, w, k)) == pytest.approx(float(F_value(w)), abs=1e-10)

    def test_float_weights_of_two_to_four_symbols(self):
        rng = random.Random(12)
        for _ in range(20):
            symbols = tuple(str(k) for k in range(rng.randint(2, 4)))
            w = reversible_weight(2, symbols, rng)
            for k in (0, 1):
                assert float(enumerated_F_value(CTX2, w, k)) == pytest.approx(float(F_value(w)), abs=1e-10)


class TestFCoefficients:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_every_join_radius_gives_the_markov_invariant(self, rank):
        # the chain rule's account of (1 - 2r) H(B_k) + sum_i H(B_k union
        # s_i B_k) is F_value's (1 - 2r) H(vertex) + sum_i H(edge_i) at every k
        for radius in range(3):
            assert F_coefficients(FreeGroupCtx(rank), radius) == (1 - 2 * rank,) + (1,) * rank


def two_symbol_weight(*pair_tables) -> Weight:
    """The rank-2 weight with vertex law (2/3, 1/3) on {0, 1} and the given
    {(a, b): p} pair law on each generator."""
    edge = {(a, b, i): p for i, table in enumerate(pair_tables, 1) for (a, b), p in table.items()}
    return Weight.from_tables(2, ("0", "1"), {"0": Fraction(2, 3), "1": Fraction(1, 3)}, edge)


# no 1 next to 1: pairs 00, 01 and 10 at 1/3 each; and the product law
GOLDEN_PAIRS = {("0", "0"): Fraction(1, 3), ("0", "1"): Fraction(1, 3), ("1", "0"): Fraction(1, 3)}
PRODUCT_PAIRS = {(a, b): Fraction(2 if a == "0" else 1, 3) * Fraction(2 if b == "0" else 1, 3) for a in "01" for b in "01"}


class TestTwistedMarkovFields:
    """The paper's theorem, exactly: twisting a Markov field x by an
    automorphism phi, y(g) = x(phi(g)), is an orbit change of bounded
    displacement, and it leaves the invariant where it was.  y is in general
    not Markov, so its F_0 may lie above the invariant; F_1 is already it."""

    WEIGHTS = {
        "golden_mean": two_symbol_weight(GOLDEN_PAIRS, GOLDEN_PAIRS),
        "golden_mean_and_product": two_symbol_weight(GOLDEN_PAIRS, PRODUCT_PAIRS),
        "bernoulli": two_symbol_weight(PRODUCT_PAIRS, PRODUCT_PAIRS),
    }
    AUTOMORPHISMS = {"nielsen": {"a": "ab", "b": "b"}, "swap": {"a": "b", "b": "a"}, "conjugation": {"a": "baB", "b": "b"}}

    @pytest.mark.parametrize("auto_name", sorted(AUTOMORPHISMS))
    @pytest.mark.parametrize("weight_name", sorted(WEIGHTS))
    def test_twisted_field_keeps_the_invariant(self, weight_name, auto_name):
        w = self.WEIGHTS[weight_name]
        auto = Automorphism.from_names(CTX2, self.AUTOMORPHISMS[auto_name])
        f = F_value(w)
        F0, F1 = twisted_F(CTX2, w, auto, 0), twisted_F(CTX2, w, auto, 1)
        assert F0.is_exact and F1.is_exact
        assert F1 == f
        assert float(F0) >= float(F1)
        if auto_name == "swap" or weight_name == "bernoulli":
            # the swap relabels the generators of a Markov field, and an
            # i.i.d. field stays i.i.d. under any twist
            assert F0 == f
        else:
            assert float(F0) > float(f)

    def test_identity_twist_is_the_enumerated_functional(self):
        identity = Automorphism.from_names(CTX2, {"a": "a", "b": "b"})
        for k in (0, 1):
            assert twisted_F(CTX2, CYCLIC, identity, k) == enumerated_F_value(CTX2, CYCLIC, k)


# ---------------------------------------------------------------------------
# the prefix-tree walk and the chain rule
# ---------------------------------------------------------------------------


def circulation_weight(rank, symbols, rng) -> Weight:
    """Exact weight whose edge matrices are in general not symmetric.  Each
    generator starts from the diagonal of one integer vertex vector and moves
    unit mass around random directed cycles, which keeps every row and
    column sum, so the weight is balanced by construction."""
    m = {a: rng.randint(1, 4) for a in symbols}
    total = sum(m.values())
    edge = {}
    for i in range(1, rank + 1):
        mat = Counter({(a, a): m[a] for a in symbols})
        for _ in range(rng.randint(0, 2 * len(symbols))):
            cycle = rng.sample(symbols, rng.randint(2, len(symbols)))
            if all(mat[(a, a)] for a in cycle):
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    mat[(a, a)] -= 1
                    mat[(a, b)] += 1
        edge.update({(a, b, i): Fraction(k, total) for (a, b), k in mat.items() if k})
    return Weight.from_tables(rank, tuple(symbols), {a: Fraction(k, total) for a, k in m.items()}, edge)


def random_subtree(rng, rank: int, size: int) -> list:
    """A prefix-closed set of at most ``size`` words inside ball(3), grown
    from the identity one child at a time, in random order."""
    letters = FreeGroupCtx(rank).letters
    words = [()]
    for _ in range(size - 1):
        g = rng.choice([g for g in words if len(g) < 3])
        child = g + (rng.choice([l for l in letters if not g or l != -g[-1]]),)
        if child not in words:
            words.append(child)
    rng.shuffle(words)
    return words


# both generators push mass around the cycle x -> y -> z, the first one
# more strongly, so no edge matrix is symmetric
CYCLIC = Weight.from_tables(
    2,
    ("x", "y", "z"),
    {a: Fraction(1, 3) for a in "xyz"},
    {
        **{(a, a, i): Fraction(1, 9) if i == 1 else Fraction(1, 6) for a in "xyz" for i in (1, 2)},
        **{(a, b, 1): Fraction(2, 9) for a, b in ("xy", "yz", "zx")},
        **{(a, b, 2): Fraction(1, 6) for a, b in ("xy", "yz", "zx")},
    },
)
# a window with edges of every kind: forward and inverse letters of both
# generators, at depths 1 to 3
MIXED_WINDOW = [(), (1,), (-1,), (2,), (-2,), (1, 2), (-2, -1), (-2, -1, -1), (1, 2, -1)]


class TestPrefixTreeWalk:
    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(2, 3), st.integers(1, 7))
    def test_marginal_matches_the_bfs_oracle(self, rng, rank, k, size):
        w = circulation_weight(rank, ("x", "y", "z")[:k], rng)
        window = random_subtree(rng, rank, size)
        dist = marginal_distribution(w, window)
        probs = dist.probs
        for key in iter_product(w.alphabet, repeat=len(dist.window)):
            assert probs.get(key, 0) == pattern_probability(w, Pattern(dist.window, key))
        assert chain_rule_entropy(w, window) == enumerated_entropy(w, window)

    def test_mixed_window_matches_the_bfs_oracle(self):
        dist = marginal_distribution(CYCLIC, MIXED_WINDOW)
        # three symbols at e, then two for each of the eight edges
        assert len(dist.probs) == 3 * 2**8
        for key, p in dist.probs.items():
            assert p == pattern_probability(CYCLIC, Pattern(dist.window, key))
        assert chain_rule_entropy(CYCLIC, MIXED_WINDOW) == enumerated_entropy(CYCLIC, MIXED_WINDOW)

    def test_window_with_a_repeated_word_raises(self):
        # each copy would get its own column with its own edge to e
        with pytest.raises(InputError, match="repeated word"):
            marginal_distribution(CYCLIC, [(), (1,), (1,)])

    @pytest.mark.parametrize("window", [[(), (1, 1)], [(), (1,), (2, 1)], [(), (-1,), (-1, -2), (1, 2)]])
    def test_window_that_is_not_prefix_closed_raises(self, window):
        with pytest.raises(InputError, match="not prefix-closed"):
            marginal_distribution(CYCLIC, window)
        with pytest.raises(InputError, match="not prefix-closed"):
            window_coefficients(window, 2)


@pytest.fixture()
def planted_weights(tmp_path):
    """Loads a copy of the package, under another name, whose weights.py has
    one text replaced, and returns that copy's weights module."""

    def load(anchor: str, replacement: str):
        root = tmp_path / "planted_finvariant"
        root.mkdir()
        for path in PACKAGE.glob("*.py"):
            text = path.read_text(encoding="utf-8")
            if path.name == "weights.py":
                assert text.count(anchor) == 1
                text = text.replace(anchor, replacement)
            (root / path.name).write_text(text, encoding="utf-8")
        spec = importlib.util.spec_from_file_location(
            "planted_finvariant", root / "__init__.py", submodule_search_locations=[str(root)]
        )
        sys.modules["planted_finvariant"] = package = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(package)
        return package.weights

    yield load
    for name in [n for n in sys.modules if n.split(".")[0] == "planted_finvariant"]:
        del sys.modules[name]


def faults_seen(weights_module) -> list:
    """The checks that catch a copy of the weights module: its functional
    against the one from enumerated marginals at join radius 0 and 1, and
    the prefix-tree walk against the BFS oracle."""
    seen = []
    # the copy's EntropyValue is another class, so the exact forms are compared
    value = weights_module.F_value(CYCLIC)
    if any(value.combo != enumerated_F_value(CTX2, CYCLIC, k).combo for k in (0, 1)):
        seen.append("functional")
    dist = weights_module.marginal_distribution(CYCLIC, MIXED_WINDOW)
    if any(p != pattern_probability(CYCLIC, Pattern(dist.window, key)) for key, p in dist.probs.items()):
        seen.append("bfs oracle")
    return seen


class TestPlantedFaults:
    # (anchor in weights.py, its replacement, the checks that must catch it)
    FAULTS = {
        "unchanged": ("(1 - 2 * w.rank,)", "(1 - 2 * w.rank,)", []),
        "join_weight_off_by_one": ("(1 - 2 * w.rank,)", "(2 - 2 * w.rank,)", ["functional"]),
        "inverse_letter_pair_read_forwards": (
            "pair = pairs.get((a, sym) if letter > 0 else (sym, a))",
            "pair = pairs.get((a, sym))",
            ["bfs oracle"],
        ),
    }

    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_fault_is_caught(self, planted_weights, name):
        anchor, replacement, expected = self.FAULTS[name]
        assert faults_seen(planted_weights(anchor, replacement)) == expected


# ---------------------------------------------------------------------------
# markovize
# ---------------------------------------------------------------------------


class TestMarkovize:
    def test_radius_zero_reproduces_edges(self):
        w = bernoulli_weight({"0": Fraction(1, 3), "1": Fraction(2, 3)}, 2)
        dist = marginal_distribution(w, CTX2.ball(1))
        w2 = markovize(CTX2, dist)
        name = {s: pattern_symbol_name(CTX2, ((),), (s,)) for s in ("0", "1")}
        for a in ("0", "1"):
            assert w2.vertex_prob(name[a]) == w.vertex_prob(a)
            for b in ("0", "1"):
                for i in (1, 2):
                    assert w2.edge_prob(name[a], name[b], i) == w.edge_prob(a, b, i)

    def test_radius_one_preserves_invariant(self):
        w = Weight.from_tables(
            2,
            ("0", "1"),
            {"0": Fraction(1, 2), "1": Fraction(1, 2)},
            {
                (a, b, i): Fraction(3, 8) if a == b else Fraction(1, 8)
                for a in "01"
                for b in "01"
                for i in (1, 2)
            },
        )
        dist = marginal_distribution(w, CTX2.ball(2))
        w2 = markovize(CTX2, dist)
        # a conjugacy: the same prime-log combination, not a close float
        assert F_value(w2) == F_value(w)

    def test_inconsistent_gluing_gets_zero(self):
        w = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2)
        dist = marginal_distribution(w, CTX2.ball(2))
        w2 = markovize(CTX2, dist)
        inner = CTX2.ball(1)
        all0 = pattern_symbol_name(CTX2, inner, ("0",) * len(inner))
        all1 = pattern_symbol_name(CTX2, inner, ("1",) * len(inner))
        assert w2.edge_prob(all0, all1, 1) == 0

    def test_inconsistent_marginals_rejected(self):
        from finvariant import PatternDistribution

        window = CTX2.ball(1)
        # all mass on a single pattern whose identity cell disagrees with its
        # neighbor cells: the gluing cannot balance
        key = ("0", "1", "1", "1", "1")
        dist = PatternDistribution(window, {key: Fraction(1)})
        with pytest.raises(InputError):
            markovize(CTX2, dist)

    def test_empirical_marginals_markovize_exactly(self):
        # pullback statistics of any labeling are projection- and
        # shift-consistent, so their markovization balances with no tolerance
        from finvariant import sample_action

        rng = random.Random(31)
        for seed in range(5):
            n = rng.randint(4, 8)
            action = sample_action(n, 2, seed=seed)
            labels = tuple(rng.choice("01") for _ in range(n))
            dist = empirical_distribution(CTX2, action, labels, 1)
            w = markovize(CTX2, dist)
            assert w.is_exact
            value = F_value(w)
            assert float(value) == float(value)  # finite, never NaN


def golden_weight(rng) -> Weight:
    """An exact rank-2 weight on {x, y} that never puts y next to y, whose
    ball(2) marginal is small enough for the Fraction oracle."""
    q = Fraction(rng.randint(1, 9), rng.randint(20, 40))
    edge = {(a, b, i): p for i in (1, 2) for (a, b), p in {"xx": 1 - 2 * q, "xy": q, "yx": q}.items()}
    return Weight.from_tables(2, ("x", "y"), {"x": 1 - q, "y": q}, edge)


# (rank, |A|, radius, seed): rank 2, |A| 3 at radius 2 exceeds PATTERN_CAP,
# and rank 2, |A| 2 there takes the sparse golden-mean weight
MASS_CASES = [
    (rank, q, radius, seed)
    for rank in (1, 2)
    for q in (2, 3)
    for radius in (1, 2)
    for seed in range(3)
    if (rank, q, radius) != (2, 3, 2)
]


def mass_case(rank, q, radius, seed):
    rng = random.Random(f"{rank}:{q}:{radius}:{seed}")
    w = golden_weight(rng) if (rank, radius) == (2, 2) else circulation_weight(rank, ("x", "y", "z")[:q], rng)
    return FreeGroupCtx(rank), w, FreeGroupCtx(rank).ball(radius)


def shuffled_marginal(ctx: FreeGroupCtx, radius: int, rng) -> PatternDistribution:
    """A random rational mixture of the empirical radius-``radius`` marginals
    of random labelings of random finite actions, with its entries in random
    order.  Every part is shift-consistent, so the mixture markovizes."""
    from finvariant import sample_action

    symbols = "xyz"[: rng.randint(2, 3)]
    shares = [rng.randint(1, 9) for _ in range(rng.randint(1, 3))]
    probs: dict[tuple, Fraction] = {}
    for share in shares:
        n = rng.randint(4, 16)
        action = sample_action(n, ctx.rank, seed=rng.randrange(10**6))
        # mostly "x", so that patterns often differ only far from e, in the
        # words markovize does not read
        labels = rng.choices(symbols, weights=(6, 1, 1)[: len(symbols)], k=n)
        for key, p in empirical_distribution(ctx, action, labels, radius).probs.items():
            probs[key] = probs.get(key, 0) + Fraction(share, sum(shares)) * p
    entries = list(probs.items())
    rng.shuffle(entries)
    return PatternDistribution(ctx.ball(radius), dict(entries))


class TestIntegerMasses:
    """Integer masses over the least common denominator against the
    Fraction arithmetic they replace, kept above as oracles."""

    @pytest.mark.parametrize("rank, q, radius, seed", MASS_CASES)
    def test_walk_and_sums_match_the_fraction_oracles(self, rank, q, radius, seed):
        ctx, w, window = mass_case(rank, q, radius, seed)
        dist = marginal_distribution(w, window)
        oracle = fraction_marginal(w, window)
        assert dist.is_exact and bits(dist.probs) == bits(oracle)
        assert math.gcd(dist.total, *dist.masses.values()) == 1
        super_weight, expected = markovize(ctx, dist), fraction_markovize(ctx, dist.window, oracle)
        assert law_bits(super_weight) == law_bits(expected)
        assert super_weight.to_json() == expected.to_json()

    @pytest.mark.parametrize("rank, q, radius, seed", MASS_CASES[::3])
    def test_json_spellings_of_a_rational_read_alike(self, rank, q, radius, seed):
        ctx, w, window = mass_case(rank, q, radius, seed)
        dist = marginal_distribution(w, window)
        data = dist.to_json(ctx)
        for k, entry in enumerate(data["entries"]):
            num, den = entry["p"]["num"], entry["p"]["den"]
            # unreduced by a factor that varies, or with the sign on den
            entry["p"] = {"num": num * (k % 5 + 1), "den": den * (k % 5 + 1)} if k % 2 else {"num": -num, "den": -den}
        back = PatternDistribution.from_json(ctx, data)
        assert back.is_exact and back.probs == dist.probs
        assert (back.masses, back.total) == (dist.masses, dist.total)
        assert markovize(ctx, back).to_json() == markovize(ctx, dist).to_json()

    @pytest.mark.parametrize("rank, q, radius, seed", MASS_CASES[::3])
    def test_float_marginals_are_bitwise_as_before(self, rank, q, radius, seed):
        ctx, exact, window = mass_case(rank, q, radius, seed)
        vertex, edge = tables(exact)
        w = Weight.from_tables(rank, exact.alphabet, {a: float(p) for a, p in vertex.items()},
                               {e: float(p) for e, p in edge.items()})
        dist = marginal_distribution(w, window)
        oracle = fraction_marginal(w, window)
        assert not dist.is_exact and bits(dist.probs) == bits(oracle)
        back = PatternDistribution.from_json(ctx, json.loads(json.dumps(dist.to_json(ctx))))
        expected = fraction_markovize(ctx, back.window, back.probs)
        super_weight = markovize(ctx, back)
        assert law_bits(super_weight) == law_bits(expected)

    @pytest.mark.parametrize("rank, q, radius, seed", MASS_CASES[::3])
    def test_mixed_marginals_are_bitwise_as_before(self, rank, q, radius, seed):
        ctx, w, window = mass_case(rank, q, radius, seed)
        exact = marginal_distribution(w, window)
        data, probs = exact.to_json(ctx), exact.probs
        given = {}
        for k, (key, entry) in enumerate(zip(sorted(probs, key=repr), data["entries"])):
            given[key] = float(probs[key]) if k % 2 else probs[key]
            entry["p"] = given[key] if k % 2 else entry["p"]
        mixed = PatternDistribution.from_json(ctx, data)
        assert not mixed.is_exact and bits(mixed.probs) == bits(given)
        super_weight, expected = markovize(ctx, mixed), fraction_markovize(ctx, mixed.window, given)
        assert law_bits(super_weight) == law_bits(expected)

    @pytest.mark.parametrize("rank, radius, seed", [(r, m, k) for r in (1, 2, 3) for m in (1, 2) for k in range(3)])
    def test_exact_markovize_matches_the_per_entry_oracle(self, rank, radius, seed):
        # markovize sums an exact marginal over the words it reads before it
        # names them; the oracle adds every entry in the order given
        ctx = FreeGroupCtx(rank)
        dist = shuffled_marginal(ctx, radius, random.Random(f"{rank}:{radius}:{seed}"))
        assert dist.is_exact and len(dist.masses) > 1
        super_weight, expected = markovize(ctx, dist), fraction_markovize(ctx, dist.window, dist.probs)
        assert law_bits(super_weight) == law_bits(expected)
        assert super_weight.to_json() == expected.to_json()

    @staticmethod
    def _moved(dist, word, symbol):
        """``dist`` with its first entry moved to show ``symbol`` at ``word``."""
        probs = dict(dist.probs)
        key, col = next(iter(probs)), dist.window.index(word)
        probs[key[:col] + (symbol,) + key[col + 1:]] = probs.pop(key)
        return PatternDistribution(dist.window, probs)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_a_symbol_only_in_unread_words_names_no_super_symbol(self, rank):
        # "w" shows only at s_1^-1, a word markovize does not read, so the
        # super-alphabet is named over the symbols at e and the weight is
        # that of the marginal before "w" was written
        ctx = FreeGroupCtx(rank)
        dist = shuffled_marginal(ctx, 1, random.Random(rank))
        marginal = self._moved(dist, (-1,), "w")
        super_weight, expected = markovize(ctx, marginal), fraction_markovize(ctx, marginal.window, marginal.probs)
        assert super_weight.to_json() == expected.to_json() == markovize(ctx, dist).to_json()
        assert not any("w" in name for name in super_weight.alphabet)

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("rank, word", [(1, (1,)), (2, (1,)), (2, (1, 2))], ids=["r1_a", "r2_a", "r2_ab"])
    def test_a_read_symbol_absent_at_the_identity_is_not_shift_invariant(self, exact, rank, word):
        # a radius-1 marginal is read at s_1, a radius-2 one at s_1 s_2 too,
        # the glued s_1 times the inner word s_2
        ctx = FreeGroupCtx(rank)
        dist = shuffled_marginal(ctx, len(word), random.Random(f"{rank}:{word}"))
        if not exact:
            dist = PatternDistribution(dist.window, {key: float(p) for key, p in dist.probs.items()})
        marginal = self._moved(dist, word, "w")
        with pytest.raises(InputError, match="not shift-invariant"):
            markovize(ctx, marginal)
        with pytest.raises(InputError, match="not shift-invariant"):
            fraction_markovize(ctx, marginal.window, marginal.probs)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_a_zero_mass_entry_names_nothing_and_passes(self, rank):
        # a zero-mass entry with "z" at e, and one with "w" at s_1, neither
        # name a super symbol nor fail, and leave the weight as it was
        ctx = FreeGroupCtx(rank)
        dist = shuffled_marginal(ctx, 1, random.Random(rank))
        keys = iter(dist.probs)
        probs = dict(dist.probs)
        for word, symbol in (((), "z"), ((1,), "w")):
            key, col = next(keys), dist.window.index(word)
            probs[key[:col] + (symbol,) + key[col + 1:]] = Fraction(0)
        marginal = PatternDistribution(dist.window, probs)
        assert len(marginal.masses) == len(dist.masses) + 2
        super_weight, expected = markovize(ctx, marginal), fraction_markovize(ctx, marginal.window, marginal.probs)
        assert super_weight.to_json() == expected.to_json() == markovize(ctx, dist).to_json()

    def test_projection_keeps_the_denominator_least(self):
        # the radius-1 Bernoulli(1/2) marginal is over 32, each pair projection over 4
        dist = marginal_distribution(bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2), CTX2.ball(1))
        assert dist.total == 32
        for i in (1, 2):
            pair = dist.project(((), (i,)))
            assert pair.total == 4 and math.gcd(pair.total, *pair.masses.values()) == 1
            assert pair.probs == {key: Fraction(1, 4) for key in iter_product("01", repeat=2)}

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([{"num": 1, "den": 0}, {"num": 1, "den": 2}], "malformed distribution entry"),
            ([{"num": True, "den": 2}, {"num": 1, "den": 2}], "malformed distribution entry"),
            ([{"num": 1, "den": 2}, {"num": 499999, "den": 1000000}], "probabilities sum to 999999/1000000, not 1"),
            ([{"num": -1, "den": 2}, {"num": 3, "den": 2}], "negative probability"),
            ([{"num": 10**400, "den": 1}, {"num": 1, "den": 2}], f"probabilities sum to {2 * 10**400 + 1}/2, not 1"),
            ([10**400, {"num": 1, "den": 2}], "malformed distribution entry"),
            # once accepted: the total and each entry's sign are within the slack
            ([1 + 2e-12, -1e-12, -1e-12], "a probability above 1"),
        ],
        ids=[
            "den_zero", "num_bool", "total_off_by_one_over_den", "negative", "num_beyond_float", "p_beyond_float",
            "float_above_one",
        ],
    )
    def test_malformed_marginals_exit_2(self, tmp_path, capsys, entries, message):
        data = {"rank": 2, "window_radius": 1, "entries": []}
        keys = iter_product("01", repeat=5)
        data["entries"] = [{"pattern": dict(zip(["", "a", "A", "b", "B"], next(keys))), "p": p} for p in entries]
        (tmp_path / "marg.json").write_text(json.dumps(data))
        assert main(["weight-tools", "markovize", "--marginals", str(tmp_path / "marg.json")]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {message}")


# ---------------------------------------------------------------------------
# rationalize
# ---------------------------------------------------------------------------


class TestRationalize:
    def test_rational_passthrough(self):
        w = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2)
        out = rationalize_weight(w, 100)
        assert weight_distance(w, out) == 0

    def test_irrational_base_within_bound(self):
        a = 1 / math.sqrt(2)
        w = bernoulli_weight({"0": a, "1": 1 - a}, 1)
        out = rationalize_weight(w, 100)
        assert out.is_exact
        assert float(weight_distance(w, out)) <= 0.08

    def test_generic_bound(self):
        rng = random.Random(11)
        for q in (50, 200):
            w = reversible_weight(2, ("0", "1"), rng)
            out = rationalize_weight(w, q)
            bound = 4 * len(w.alphabet) ** 2 * w.rank / q
            assert float(weight_distance(w, out)) <= bound

    def test_zeros_preserved(self):
        a = 1 / math.sqrt(3)
        vertex = {"0": a, "1": 1 - a}
        edge = {
            ("0", "0", 1): a,
            ("1", "1", 1): 1 - a,
            ("0", "0", 2): a * a,
            ("0", "1", 2): a * (1 - a),
            ("1", "0", 2): a * (1 - a),
            ("1", "1", 2): (1 - a) * (1 - a),
        }
        w = Weight.from_tables(2, ("0", "1"), vertex, edge)
        out = rationalize_weight(w, 500)
        assert out.edge_prob("0", "1", 1) == 0
        assert out.edge_prob("1", "0", 1) == 0

    def _seven_cycle_weight(self):
        symbols = tuple(str(k) for k in range(7))
        eps = 0.001 * math.sqrt(2)
        vertex = {s: 1 / 7 for s in symbols}
        edge = {}
        for k in range(7):
            edge[(symbols[k], symbols[(k + 1) % 7], 1)] = 1 / 7
        for a in range(7):
            for b in range(7):
                bump = eps if (b - a) % 7 == 1 else (-eps if (b - a) % 7 == 2 else 0.0)
                edge[(symbols[a], symbols[b], 2)] = 1 / 49 + bump
        return Weight.from_tables(2, symbols, vertex, edge)

    def test_cyclic_support_needs_divisible_denominator(self):
        w = self._seven_cycle_weight()
        out = rationalize_weight(w, 59)  # retry window reaches 56 = 8 * 7
        assert out.is_exact
        denominators = {Fraction(v).denominator for v in tables(out)[0].values()}
        assert all(d <= 59 for d in denominators)

    def test_infeasible_support_certificate(self):
        w = self._seven_cycle_weight()
        with pytest.raises(ConstructionError):
            rationalize_weight(w, 5)

    @staticmethod
    def _near_half_weight(half: float, quarter: float) -> Weight:
        # balanced within PROB_TOL, so at q = 10^15 the floors of W * q miss q by 100
        edge = {("0", "0", 1): 0.25, ("0", "1", 1): 0.25, ("1", "0", 1): 0.25, ("1", "1", 1): quarter}
        return Weight.from_tables(1, ("0", "1"), {"0": 0.5, "1": half}, edge)

    def test_vertex_rounding_is_the_round_robin(self):
        # the closed form hands out a deficit as the round robin it replaced
        # did: one unit per step to the symbols of positive mass in remainder
        # order, cycling, zeros skipped
        rng = random.Random(5)
        for trial in range(30):
            pi = [rng.uniform(0.2, 1.0) for _ in range(rng.randint(2, 4))]
            pi[0] *= trial % 2  # half the weights have a symbol of zero mass
            pi = [x / sum(pi) for x in pi]
            w = reversible_weight(rng.randint(1, 2), "0123"[: len(pi)], rng, pi)
            for n_total in (1, 7, 100, 10**15):
                raw = {a: Fraction(w.vertex_prob(a)) for a in w.alphabet}
                out = {a: int(raw[a] * n_total) for a in w.alphabet}
                order = sorted((a for a in w.alphabet if raw[a]), key=lambda a: (out[a] - raw[a] * n_total, str(a)))
                for k in range(n_total - sum(out.values())):
                    out[order[k % len(order)]] += 1
                assert _round_vertex(w, n_total) == out, (trial, n_total)

    def test_vertex_rounding_spreads_a_large_deficit(self):
        # the floors fall 100 short: more than ten passes over the alphabet
        w = self._near_half_weight(0.4999999999999, 0.2499999999999)
        assert _round_vertex(w, 10**15) == {"0": 500000000000050, "1": 499999999999950}

    def test_vertex_rounding_takes_back_a_surplus(self):
        # the floors run 100 over, and then the pair law's floors overflow
        # row "0" and column "0", so the transport trims both
        w = self._near_half_weight(0.5000000000001, 0.2500000000001)
        counts = _round_vertex(w, 10**15)
        assert counts == {"0": 499999999999950, "1": 500000000000050}
        floors = {key: int(Fraction(p) * 10**15) for key, p in w.laws[1].probs.items()}
        assert floors["0", "0"] + floors["0", "1"] > counts["0"] < floors["0", "0"] + floors["1", "0"]
        out = rationalize_weight(w, 10**15)
        assert out.is_exact and all(law.total <= 10**15 for law in out.laws)

    def test_a_surplus_leaves_the_largest_remainders_most(self):
        # the floors at 10^15 run 298 over: each symbol gives back 100 but
        # "1" and "2", the largest remainders (.989 and .982), one less each
        vertex = {"0": 0.2, "1": 0.3, "2": 0.5000000000003}
        w = Weight.from_tables(1, ("0", "1", "2"), vertex, {(a, a, 1): p for a, p in vertex.items()})
        assert _round_vertex(w, 10**15) == {"0": 199999999999900, "1": 299999999999900, "2": 500000000000200}

    def test_a_surplus_passes_over_a_symbol_that_cannot_give_it(self):
        # symbol "0" has one unit at q = 10^15 and a third of the surplus of
        # 501 is 167, so it keeps its unit and "1" and "2" give 251 and 250
        vertex = {"0": 1e-15, "1": 0.5, "2": 0.5000000000005}
        w = Weight.from_tables(1, ("0", "1", "2"), vertex, {(a, a, 1): p for a, p in vertex.items()})
        counts = {"0": 1, "1": 499999999999749, "2": 500000000000250}
        assert _round_vertex(w, 10**15) == counts
        out = rationalize_weight(w, 10**15)
        assert out.is_exact and [law.total for law in out.laws] == [10**15, 10**15]
        assert out.laws[0].masses == {(a,): k for a, k in counts.items()}
        assert out.laws[1].masses == {(a, a): k for a, k in counts.items()}

    def test_running_sums_match_the_recomputing_transport(self):
        # random float weights, every other one with an edge nudged within
        # PROB_TOL, so that at 10^15 its floors overflow a row or a column
        rng = random.Random(23)
        weights = [self._seven_cycle_weight(), self._near_half_weight(0.5000000000001, 0.2500000000001)]
        for trial in range(40):
            w = reversible_weight(rng.randint(1, 2), "0123"[: rng.randint(2, 4)], rng)
            if trial % 2:
                vertex, edge = tables(w)
                nudged = rng.choice(sorted(edge))
                edge[nudged] += rng.choice((-3e-13, 3e-13))
                w = Weight.from_tables(w.rank, w.alphabet, vertex, edge)
            weights.append(w)
        trims = Counter()
        for w in weights:
            for n_total in (3, 5, 7, 100, 10**6, 10**15):
                counts = _round_vertex(w, n_total)
                for i in range(1, w.rank + 1):
                    mat, certificate, row_trims, col_trims = recomputing_transport(w, i, counts, n_total)
                    got, got_certificate = _integer_transport(w, i, counts, n_total)
                    assert (got and list(got.items()), got_certificate) == (mat and list(mat.items()), certificate)
                    trims.update(rows=row_trims, cols=col_trims, failed=mat is None)
        # the trims and a failed transport are exercised, not only clean floors
        assert trims["rows"] and trims["cols"] and trims["failed"]
