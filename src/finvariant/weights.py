"""Weights, Markov measures on the free-group tree, Shannon entropy, and the
exact free-group entropy functional.

A weight is a law of one symbol (the vertex law W(a)) and, per generator i,
a law of the ordered symbol pair along it (the pair law W(a,b;i)), subject to

  Balanced:    sum_b W(a,b;i) = W(a) = sum_b W(b,a;i)   for every i, a
  Normalized:  sum_a W(a) = 1.

Such a weight determines a unique shift-invariant measure whose pattern
probabilities on connected subtrees factor as

  prod_edges W(p(g), p(g s_i); i) * prod_vertices W(p(g)) ** (1 - deg(g)),

where the tree structure uses right-multiplication edges (g, g s_i).  That
factorization is the computational backbone of everything here.

Entropies of weights with exact rational entries are carried symbolically as
rational combinations of logs of primes, so identities like "the invariant of
a product weight equals the base entropy" hold with exact equality, not just
within float tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count, product as iter_product
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

from .errors import ConstructionError, InputError, ResourceCapError, WeightError, as_int
from .freegroup import IDENTITY, FreeGroupCtx, Word, mul, sort_words
from .sft import SftSpec
from .shift import PROB_TOL, PatternDistribution, items_at, over_lcm, read_prob, write_prob

# patterns marginal_distribution may enumerate
PATTERN_CAP = 1 << 22


# ---------------------------------------------------------------------------
# exact entropy values
# ---------------------------------------------------------------------------


# the primes below 1000, by a sieve over the primes below sqrt(1000)
_TRIAL_PRIMES = tuple(
    sorted(set(range(2, 1000)).difference(*(range(p * p, 1000, p) for p in range(2, 32))))
)
# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = _TRIAL_PRIMES[:13]
_MR_LIMIT = 3317044064679887385961981
# Pollard-rho steps per cofactor; a factor near 1e9 takes about 4e4
_RHO_BUDGET = 1 << 20


def _is_probable_prime(n: int) -> bool:
    """Strong-probable-prime test of an odd n > 41 to every base in _MR_BASES;
    exact for n < _MR_LIMIT, and a False is always a proof of compositeness."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n by Pollard's rho with Brent's
    cycle detection (BIT 20, 1980), one gcd per step, walking x -> x^2 + c
    for c = 1, 2, ... until a gcd is neither 1 nor n, within _RHO_BUDGET steps."""
    steps = 0
    for c in count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            if steps > _RHO_BUDGET:
                raise ResourceCapError(
                    f"cannot factor {n}: Pollard rho found no divisor in {_RHO_BUDGET} steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                y = (y * y + c) % n
                g = math.gcd(x - y, n)
                k += 1
            steps += 2 * r
            r *= 2
        if g != n:
            return g


@lru_cache(maxsize=None)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization as a sorted ((p, e), ...) tuple.

    Trial division strips the primes below 1000; Miller-Rabin and Pollard
    rho split what is left.  A cofactor past the exact Miller-Rabin range
    that may be prime, or one rho cannot split within its budget, raises
    ``ResourceCapError``.
    """
    if n <= 0:
        raise InputError("can only factor positive integers")
    counts: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        while n % p == 0:
            n //= p
            counts[p] = counts.get(p, 0) + 1
    # every part below holds no prime under 1000, so one below 1000^2 is prime
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if m < 1000 * 1000 or _is_probable_prime(m):
            if m >= _MR_LIMIT:
                raise ResourceCapError(
                    f"cannot factor {m}: a probable prime beyond the exact Miller-Rabin range"
                )
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _rho_divisor(m)
        parts += [d, m // d]
    return tuple(sorted(counts.items()))


class EntropyValue:
    """An extended real in [-inf, inf), optionally with an exact symbolic form.

    The exact form is a dict prime -> rational coefficient representing
    sum c_p * ln(p); two exact values compare by coefficient equality.
    """

    __slots__ = ("value", "combo")

    def __init__(self, value: float, combo: dict[int, Fraction] | None = None):
        self.value = float(value)
        self.combo = combo

    @classmethod
    def exact(cls, combo: Mapping[int, Fraction]) -> "EntropyValue":
        combo = {p: Fraction(c) for p, c in combo.items() if c}
        return cls(sum(float(c) * math.log(p) for p, c in sorted(combo.items())), combo)

    @property
    def is_exact(self) -> bool:
        return self.combo is not None

    def __float__(self) -> float:
        return self.value

    def __eq__(self, other):
        if not isinstance(other, EntropyValue):
            return NotImplemented
        if self.combo is not None and other.combo is not None:
            return self.combo == other.combo
        return self.value == other.value

    def __repr__(self):
        tag = " exact" if self.is_exact else ""
        return f"EntropyValue({self.value!r}{tag})"


def shannon_entropy(dist: PatternDistribution) -> EntropyValue:
    """Shannon entropy in nats of a distribution; 0 log 0 = 0.

    An exact distribution, masses m over the total T, has the exact value
    sum (m/T) ln(T/m).  Only the lowest terms T/g and m/g, g = gcd(m, T),
    are factored, so primes that cancel from m/T need not be within reach;
    the coefficient of each prime is summed as an integer over T."""
    if dist.is_exact:
        total = dist.total
        sums: dict[int, int] = {}
        for m in dist.masses.values():
            if m:
                common = math.gcd(m, total)
                for part, sign in ((total // common, m), (m // common, -m)):
                    for p, e in _factor(part):
                        sums[p] = sums.get(p, 0) + sign * e
        return EntropyValue.exact({p: Fraction(s, total) for p, s in sums.items()})
    acc = 0.0
    for p in dist.masses.values():
        p = float(p)
        if p > 0.0:
            acc -= p * math.log(p)
    return EntropyValue(acc)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Weight:
    """The vertex law and one pair law per generator of a Markov measure.

    ``laws[0]`` is the law of x(e) on the window ((),), keyed (a,), and
    ``laws[i]`` the law of (x(e), x(s_i)) on ((), (i,)), keyed (a, b);
    missing keys mean probability zero.  Each law checks its own total, and
    the weight checks what ties them together when it is built: every symbol
    is in the alphabet, both one-site projections of each pair law equal the
    vertex law, exactly when both laws are rational and within ``PROB_TOL``
    otherwise, and no positive pair touches a symbol of zero vertex weight.
    A weight is exact (``is_exact``) when every law is.  Weights compare by
    identity.
    """

    rank: int
    alphabet: tuple
    laws: tuple[PatternDistribution, ...]
    is_exact: bool = field(init=False, repr=False)

    def __post_init__(self):
        if self.rank < 1:
            raise WeightError("weight rank must be >= 1")
        if len(set(self.alphabet)) != len(self.alphabet) or not self.alphabet:
            raise WeightError("alphabet must be nonempty with distinct symbols")
        # to_json keys the vertex law by str(a), so two symbols may not share it
        names: dict[str, object] = {}
        for a in self.alphabet:
            if names.setdefault(str(a), a) is not a:
                raise WeightError(f"symbols {names[str(a)]!r} and {a!r} both write as {str(a)!r}")
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "laws", tuple(self.laws))
        windows = (((), (i,)) if i else ((),) for i in range(self.rank + 1))
        if len(self.laws) != self.rank + 1 or any(law.window != win for law, win in zip(self.laws, windows)):
            raise WeightError("a weight's laws are the vertex law and one pair law per generator")
        unknown = {a for law in self.laws for key in law.masses for a in key}.difference(self.alphabet)
        if unknown:
            raise WeightError(f"symbols {', '.join(sorted(map(repr, unknown)))} not in alphabet")
        object.__setattr__(self, "is_exact", all(law.is_exact for law in self.laws))
        vertex = self.laws[0]
        for i, pair in enumerate(self.laws[1:], 1):
            exact = vertex.is_exact and pair.is_exact
            for margin in (pair.project(((),)), pair.project(((i,),))):
                for a in self.alphabet:
                    m, v = margin.masses.get((a,), 0), vertex.masses.get((a,), 0)
                    gap = m * vertex.total - v * margin.total if exact else m / margin.total - v / vertex.total
                    if not abs(gap) <= (0 if exact else PROB_TOL):  # written so that a NaN fails
                        raise WeightError(f"balance fails at symbol {a!r}, generator {i}")
            for (a, b), m in pair.masses.items():
                if m and not (vertex.masses.get((a,)) and vertex.masses.get((b,))):
                    raise WeightError(f"positive pair ({a!r}, {b!r}) of generator {i} at a zero-weight symbol")

    @classmethod
    def from_tables(cls, rank: int, alphabet, vertex: Mapping, edge: Mapping, total: int = 1) -> "Weight":
        """The weight of a vertex table {a: mass} and an edge table
        {(a, b, i): mass}, the masses over ``total``, with i 1-based.

        Each law keeps the keys given, in alphabet-major order, so a float
        law sums in that order; symbols outside the alphabet go last, for
        the weight's check to name.
        """
        alphabet = tuple(alphabet)
        position = {a: k for k, a in enumerate(alphabet)}
        tables = {0: {(a,): m for a, m in vertex.items()}}
        for (a, b, i), m in edge.items():
            if not 1 <= i <= rank:
                raise WeightError(f"edge generator index {i} out of range")
            tables.setdefault(i, {})[a, b] = m
        laws = []
        for i in range(rank + 1):
            table = tables.get(i, {})
            order = sorted(table, key=lambda key: [position.get(a, len(position)) for a in key])
            try:
                laws.append(PatternDistribution(((), (i,)) if i else ((),), {key: table[key] for key in order}, total))
            except InputError as exc:
                raise WeightError(f"{f'generator {i} pair law' if i else 'vertex law'}: {exc}") from None
        return cls(rank, alphabet, tuple(laws))

    def vertex_prob(self, a):
        return self.laws[0].probs.get((a,), 0)

    def edge_prob(self, a, b, i):
        return self.laws[i].probs.get((a, b), 0)

    @cached_property
    def entropies(self) -> tuple[EntropyValue, ...]:
        """(H(vertex), H(edge_1), ..., H(edge_r)): entry i is the entropy of
        the generator-i pair law, so the tuple indexes by generator."""
        return tuple(shannon_entropy(law) for law in self.laws)

    def to_json(self) -> dict:
        vertex = self.laws[0]
        edges = [
            {"from": a, "to": b, "gen": i, "p": write_prob(m, law.total)}
            for i, law in enumerate(self.laws[1:], 1)
            for (a, b), m in sorted(law.masses.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))
        ]
        return {
            "rank": self.rank,
            "alphabet": list(self.alphabet),
            "vertex": {str(a): write_prob(vertex.masses.get((a,), 0), vertex.total) for a in self.alphabet},
            "edge": edges,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Weight":
        try:
            rank = as_int(data["rank"], "rank")
            if not isinstance(data["alphabet"], list):
                raise InputError(f"a weight's alphabet must be a json list, got {data['alphabet']!r}")
            alphabet = tuple(data["alphabet"])
            # vertex keys are json strings: each names the symbol it is the str of
            symbol = {str(a): a for a in alphabet}
            vertex = {symbol.get(a, a): read_prob(p) for a, p in data["vertex"].items()}
            edge = {
                (e["from"], e["to"], as_int(e["gen"], "an edge's gen")): read_prob(e["p"])
                for e in data["edge"]
            }
            return cls.from_tables(rank, alphabet, vertex, edge)
        except (KeyError, TypeError, AttributeError) as exc:
            raise InputError(f"malformed weight json: {exc}") from exc


def weight_distance(w1: Weight, w2: Weight):
    """l1 distance over all edge entries (a, b, i), summed generator by
    generator in alphabet-major order, so a float sum rounds alike in every
    run."""
    if w1.alphabet != w2.alphabet or w1.rank != w2.rank:
        raise InputError("weight distance needs matching alphabet and rank")
    alpha = w1.alphabet
    return sum(
        abs(w1.edge_prob(a, b, i) - w2.edge_prob(a, b, i))
        for i in range(1, w1.rank + 1)
        for a in alpha
        for b in alpha
    )


# ---------------------------------------------------------------------------
# window marginals
# ---------------------------------------------------------------------------


def _tree_edges(window: Sequence[Word]) -> list[tuple[int, int]]:
    """(parent position, last letter) of each word after the identity in a
    shortlex-sorted window that starts with the identity.

    The Cayley graph is a tree and the path from e to g runs through the
    prefixes of g, so such a window is connected exactly when it is
    prefix-closed, and the one edge from g towards e goes to g[:-1].
    """
    index = {g: k for k, g in enumerate(window)}
    if len(index) != len(window):
        raise InputError("window has a repeated word")
    try:
        return [(index[g[:-1]], g[-1]) for g in window[1:]]
    except KeyError:
        raise InputError("window is not prefix-closed, so not connected in the Cayley tree") from None


def marginal_distribution(w: Weight, window: Sequence[Word]) -> PatternDistribution:
    """Exact finite-window marginal of the weight's Markov measure.

    Enumerates only patterns of positive probability, walking the window in
    shortlex order: the edge from g to its parent g[:-1] along generator i
    reads the pair (x(g[:-1]), x(g)) for a last letter +i and (x(g), x(g[:-1]))
    for -i, and contributes the conditional factor pair / W(x(g[:-1])).  An
    exact weight's walk multiplies the laws' integer masses and totals.
    """
    window = sort_words(window)
    if () not in window:
        raise InputError("marginal windows must contain the identity")
    if len(w.alphabet) ** len(window) > PATTERN_CAP:
        raise ResourceCapError(
            f"{len(w.alphabet)}^{len(window)} window patterns exceed cap {PATTERN_CAP}"
        )
    edges = _tree_edges(window)
    exact = w.is_exact
    tables = [law.masses if exact else law.probs for law in w.laws]
    totals = [law.total for law in w.laws]
    vertex = tables[0]
    probs: dict[tuple, tuple] = {}
    values: list = [None] * len(window)

    def extend(k: int, num, den):
        # k is the next window position to fill
        if k == len(window):
            probs[tuple(values)] = (num, den)
            return
        parent, letter = edges[k - 1]
        a = values[parent]
        vp, i = vertex[(a,)], abs(letter)
        pairs = tables[i]
        for sym in w.alphabet:
            pair = pairs.get((a, sym) if letter > 0 else (sym, a))
            if pair:
                values[k] = sym
                if exact:  # pair / W(a) = (pair / T_i) / (W(a) / T_0) over the laws' totals T
                    extend(k + 1, num * pair * totals[0], den * totals[i] * vp)
                else:  # left to right: a float marginal rounds as (prob * pair) / W(a)
                    extend(k + 1, num * pair / vp, 1)

    for sym in w.alphabet:
        v = vertex.get((sym,))
        if v:
            values[0] = sym
            extend(1, v, totals[0])
    if exact:
        return PatternDistribution(window, *over_lcm(probs))
    return PatternDistribution(window, {key: p for key, (p, _) in probs.items()})


# ---------------------------------------------------------------------------
# the entropy functional
# ---------------------------------------------------------------------------


def F_value(w: Weight) -> EntropyValue:
    """The invariant of the weight's Markov measure,
    (1 - 2r) H(vertex) + sum_i H(edge_i).

    This is the functional (1 - 2r) H(B_k) + sum_i H(B_k union s_i B_k) at
    every join radius k: by the tree chain rule each window entropy is
    H(vertex) plus H(edge_i) - H(vertex) per word whose last letter is
    +-s_i, and the ball counts cancel.  The coefficients are combined once
    with ``Weight.entropies``: a prime-log combination for an exact weight,
    a float dot product otherwise.
    """
    terms = list(zip((1 - 2 * w.rank,) + (1,) * w.rank, w.entropies))
    if not w.is_exact:
        return EntropyValue(sum(c * h.value for c, h in terms))
    combo: dict[int, Fraction] = {}
    for c, h in terms:
        for p, x in h.combo.items():
            combo[p] = combo.get(p, 0) + c * x
    return EntropyValue.exact(combo)


# ---------------------------------------------------------------------------
# markovization of finite-window statistics
# ---------------------------------------------------------------------------


def pattern_symbol_name(ctx: FreeGroupCtx, window: Sequence[Word], key: tuple) -> str:
    return ",".join(f"{ctx.format(g)}={key[k]}" for k, g in enumerate(window))


def markovize(ctx: FreeGroupCtx, dist: PatternDistribution) -> Weight:
    """Collapse a radius-(m+1) marginal into a weight over the super-alphabet
    of radius-m patterns.

    Vertex weights are the projected pattern probabilities; the edge weight of
    (c, c', i) is the mass of configurations showing c at the identity and c'
    across the s_i edge.  Overlap-inconsistent gluings receive zero mass, so
    the support is a nearest-neighbor constraint system by construction.
    """
    radius = max((len(g) for g in dist.window), default=0)
    if dist.window != ctx.ball(radius) or radius < 1:
        raise InputError("markovize needs a ball window of radius >= 1")
    inner = ctx.ball(radius - 1)
    glued = [inner] + [[mul((i,), g) for g in inner] for i in range(1, ctx.rank + 1)]
    # an exact marginal is summed over the words read first: its integer
    # sums do not depend on order.  A float one keeps its entry order.
    if dist.is_exact:
        dist = dist.project(set().union(*glued))
    col = {g: k for k, g in enumerate(dist.window)}
    readers = [items_at([col[h] for h in words]) for words in glued]
    # a shift-invariant marginal shows at every word the symbols it shows at e
    base_symbols = sorted({key[col[IDENTITY]] for key, p in dist.masses.items() if p}, key=repr)
    names = {
        key: pattern_symbol_name(ctx, inner, key)
        for key in iter_product(base_symbols, repeat=len(inner))
    }
    alphabet = tuple(names.values())
    vertex: dict[str, object] = {}
    edge: dict[tuple, object] = {}
    for key, p in dist.masses.items():
        try:
            c, *glued_names = (names[read(key)] for read in readers)
        except KeyError:
            if p:
                raise InputError(
                    f"marginals are not shift-invariant: {pattern_symbol_name(ctx, dist.window, key)} "
                    "shows a symbol that no pattern of nonzero mass shows at the identity"
                ) from None
            continue  # a pattern of zero mass names nothing
        vertex[c] = vertex.get(c, 0) + p
        for i, name in enumerate(glued_names, 1):
            edge_key = (c, name, i)
            edge[edge_key] = edge.get(edge_key, 0) + p
    try:
        # an exact marginal's sums are integers over its one denominator
        return Weight.from_tables(ctx.rank, alphabet, vertex, edge, dist.total)
    except WeightError as exc:
        raise InputError(f"marginals are not projection-consistent: {exc}") from exc


# ---------------------------------------------------------------------------
# rationalization
# ---------------------------------------------------------------------------


def _as_fraction_checked(x, q: int):
    if isinstance(x, (int, Fraction)):
        f = Fraction(x)
        return f if f.denominator <= q else None
    f = Fraction(x).limit_denominator(q)
    return f if abs(f - x) <= PROB_TOL else None


def _try_exact_passthrough(w: Weight, q: int) -> Weight | None:
    vertex = {a: _as_fraction_checked(p, q) for (a,), p in w.laws[0].probs.items()}
    edge = {
        (a, b, i): _as_fraction_checked(p, q)
        for i in range(1, w.rank + 1)
        for (a, b), p in w.laws[i].probs.items()
    }
    if None in vertex.values() or None in edge.values():
        return None
    try:
        return Weight.from_tables(w.rank, w.alphabet, vertex, edge)
    except WeightError:
        return None


def _round_vertex(w: Weight, n_total: int) -> dict:
    """Largest-remainder rounding of vertex weights to integers summing to
    n_total, preserving zeros.

    The floors miss n_total by a deficit, or by a surplus when a float law
    sums above 1.  It is spread evenly over the symbols of positive mass, and
    what does not divide goes one each to the largest remainders (a surplus
    is taken from the smallest).  A symbol that cannot give its share of a
    surplus keeps its floor, and the others share the surplus again.
    """
    raw = {a: Fraction(w.vertex_prob(a)) for a in w.alphabet}
    out = {a: int(raw[a] * n_total) for a in w.alphabet}
    order = sorted((a for a in w.alphabet if raw[a] > 0), key=lambda a: (-(raw[a] * n_total - out[a]), str(a)))
    gap = n_total - sum(out.values())
    while order:
        share, extra = divmod(gap, len(order))
        dealt = {a: out[a] + share + (k < extra) for k, a in enumerate(order)}
        if min(dealt.values()) >= 0:
            return out | dealt
        order = [a for a in order if dealt[a] >= 0]
    raise ConstructionError(f"cannot round vertex weights to {n_total}: no symbols can give back {-gap}")


def _integer_transport(w: Weight, i: int, counts: dict, n_total: int):
    """Nonnegative integer matrix with row and column sums ``counts`` and
    support inside the positive entries of generator i, close to W * N.

    Starts from entrywise floors and repairs deficits with BFS augmenting
    paths; returns None with a certificate string when no such matrix exists.
    """
    alpha = list(w.alphabet)
    support = {(a, b): p for (a, b), p in w.laws[i].probs.items() if p > 0}
    mat = {(a, b): min(int(Fraction(p) * n_total), counts[a], counts[b]) for (a, b), p in support.items()}

    # running row and column sums, moved with every entry that changes
    row_sum = dict.fromkeys(alpha, 0)
    col_sum = dict.fromkeys(alpha, 0)
    for (a, b), k in mat.items():
        row_sum[a] += k
        col_sum[b] += k

    def move(a, b, step):
        mat[(a, b)] = mat.get((a, b), 0) + step
        row_sum[a] += step
        col_sum[b] += step

    # a float pair law balances only within PROB_TOL, so its floors may
    # overflow a row or column count: trim them
    for a in alpha:
        while row_sum[a] > counts[a]:
            b = max((x for x in alpha if mat.get((a, x), 0) > 0), key=lambda x: mat[(a, x)])
            move(a, b, -1)
    for b in alpha:
        while col_sum[b] > counts[b]:
            a = max((x for x in alpha if mat.get((x, b), 0) > 0), key=lambda x: mat[(x, b)])
            move(a, b, -1)

    # each augmentation adds one to the matrix total, which n_total bounds
    while True:
        deficit_rows = [a for a in alpha if row_sum[a] < counts[a]]
        if not deficit_rows:
            break
        # BFS over alternating row/col states from any deficit row
        start = deficit_rows[0]
        parent: dict[tuple, tuple | None] = {("r", start): None}
        queue = [("r", start)]
        end = None
        while queue and end is None:
            kind, node = queue.pop(0)
            if kind == "r":
                for b in alpha:
                    if (node, b) in support and ("c", b) not in parent:
                        parent[("c", b)] = ("r", node)
                        if col_sum[b] < counts[b]:
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
            return None, (
                f"generator {i}: rows {{{', '.join(rows)}}} can only reach "
                f"columns {{{', '.join(cols)}}} whose targets are saturated"
            )
        # apply the alternating path: +1 on row->col edges, -1 on col->row
        node = end
        while parent[node] is not None:
            prev = parent[node]
            if node[0] == "c":
                move(prev[1], node[1], 1)
            else:
                move(node[1], prev[1], -1)
            node = prev
    return mat, None


def rationalize_weight(w: Weight, q: int, support: SftSpec | None = None) -> Weight:
    """Round a weight to exact rationals with denominator <= q, keeping it
    exactly balanced and normalized and preserving every zero entry.

    ``support`` may carry a nearest-neighbor constraint system; the weight is
    then required to vanish on its forbidden edges before rounding.  The l1
    change is O(|A|^2 r / q).
    """
    if q < 1:
        raise InputError("denominator bound must be >= 1")
    if support is not None:
        if support.forbidden_pairs is None:
            raise InputError("a support must be a nearest-neighbor constraint system")
        for a, b, i in support.forbidden_pairs:
            if w.edge_prob(a, b, i):
                raise InputError(
                    f"weight is not supported on the constraint system: edge ({a!r},{b!r};{i}) positive"
                )
    exact = _try_exact_passthrough(w, q)
    if exact is not None:
        return exact

    certificates = []
    n_tries = min(q, 2 * len(w.alphabet) + 2)
    for n_total in range(q, q - n_tries, -1):
        counts = _round_vertex(w, n_total)
        mats = {}
        failed = None
        for i in range(1, w.rank + 1):
            mat, cert = _integer_transport(w, i, counts, n_total)
            if mat is None:
                failed = f"denominator {n_total}: {cert}"
                break
            mats[i] = mat
        if failed:
            certificates.append(failed)
            continue
        edge = {(a, b, i): k for i, mat in mats.items() for (a, b), k in mat.items() if k}
        return Weight.from_tables(w.rank, w.alphabet, counts, edge, n_total)
    raise ConstructionError(
        "no balanced rational rounding exists at denominators "
        f"{q - n_tries + 1}..{q}; certificates: " + "; ".join(certificates)
    )
