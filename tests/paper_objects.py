"""Paper objects and oracles that only the tests use.

The package holds what its commands run.  The definitions here come from the
paper but have no caller outside the test suite: the action of a word on
one vertex (the oracle of ``window_columns``), the left shift and the
theta/upsilon actions with the edge-label encoding E (criterion 08), block
codes and the join observable (criterion 09), empirical distributions and
the l1 and pair-marginal distances that the brute-force counting oracle
uses, Bernoulli product weights, tree-factorized pattern probabilities
over a breadth-first spanning tree, the tree chain rule's integer
coefficients of a window entropy and of the functional, the functional of
a Markov field twisted by an automorphism, nearest-neighbor constraint systems
with the per-vertex forbidden-pattern oracle, the depth-first telescope
walk, past windows, automorphism tables and the collision-scan automorphism check,
pattern restriction, label transport through an orbit map and the orbit-map
diagnostics.  Also the JSON writers of actions, constraint systems and orbit
maps, the orbit-map reader with its validation, and a boolean z_rho
admissibility check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Iterable, Iterator, Mapping, Sequence

from finvariant.actions import FiniteAction
from finvariant.counting import EstimateResult, f_estimate
from finvariant.errors import ConstructionError, InputError, WeightError, WindowError
from finvariant.freegroup import IDENTITY, FreeGroupCtx, Word, inv, mul, sort_words
from finvariant.orbitmaps import Automorphism, LocalBijection, zrho_pullbacks
from finvariant.sft import SftSpec, _bfs, symbol_entry
from finvariant.shift import PROB_TOL, Pattern, PatternDistribution, window_columns
from finvariant.weights import EntropyValue, Weight, _tree_edges, marginal_distribution, shannon_entropy


# ---------------------------------------------------------------------------
# free group
# ---------------------------------------------------------------------------


def act(action: FiniteAction, word: Word, v: int) -> int:
    """sigma(word) v, stepped one letter at a time, the rightmost first: the
    one-vertex oracle of ``window_columns``."""
    for letter in reversed(word):
        v = action.letter_perm(letter)[v]
    return v


def action_to_json(action: FiniteAction) -> dict:
    """The wire form that ``FiniteAction.from_json`` reads."""
    return {"n": action.n, "rank": action.rank, "perms": [list(p) for p in action.perms]}


def past_window(ctx: FreeGroupCtx, g1: Word, g2: Word, m: int) -> tuple[Word, ...]:
    """Elements f of the radius-m ball whose geodesic to g1 in the left
    Cayley tree passes through g2.

    Left Cayley edges join g and sg, so the tree distance between f and
    h is the length of h * f^-1.
    """
    if g1 == g2:
        raise InputError("past window requires g1 != g2")
    ball = ctx.ball(m)
    ball_set = set(ball)
    if g1 not in ball_set or g2 not in ball_set:
        raise InputError("g1 and g2 must lie in the radius-m ball")
    gap = len(mul(g1, inv(g2)))
    out = []
    for f in ball:
        f_inv = inv(f)
        if len(mul(g2, f_inv)) + gap == len(mul(g1, f_inv)):
            out.append(f)
    return tuple(out)


# ---------------------------------------------------------------------------
# shift space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple

    def __post_init__(self):
        if not self.symbols:
            raise InputError("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise InputError("alphabet symbols must be distinct")


def as_dict(p: Pattern) -> dict:
    return dict(zip(p.domain, p.values))


def restrict(p: Pattern, words: Iterable[Word]) -> Pattern:
    ws = list(words)
    return Pattern(ws, [p[w] for w in ws])


def shift_pattern(g: Word, p: Pattern) -> Pattern:
    """Left shift: (g.p)(f) = p(g^-1 f), so the domain moves to g * domain."""
    g_inv = inv(g)
    new_domain = [mul(g, w) for w in p.domain]
    return Pattern(new_domain, [p[mul(g_inv, w)] for w in new_domain])


def l1_distance(d1: PatternDistribution, d2: PatternDistribution):
    """l1 distance of two distributions on the same window; range [0, 2]."""
    if d1.window != d2.window:
        raise InputError("l1 distance needs matching windows")
    p1, p2 = d1.probs, d2.probs
    return sum(abs(p1.get(k, 0) - p2.get(k, 0)) for k in set(p1) | set(p2))


def _pullback_keys(action, labels, window):
    cols = window_columns(action, window)
    return [tuple(labels[col[v]] for col in cols) for v in range(action.n)]


def empirical_distribution(
    ctx: FreeGroupCtx, action: FiniteAction, labels: Sequence, m: int
) -> PatternDistribution:
    """Empirical distribution of pullback names, projected to the radius-m ball.

    Probabilities come out as exact multiples of 1/n.
    """
    window = ctx.ball(m)
    n = action.n
    counts: dict[tuple, int] = {}
    for key in _pullback_keys(action, labels, window):
        counts[key] = counts.get(key, 0) + 1
    return PatternDistribution(window, counts, n)


def d_star(ctx: FreeGroupCtx, d1: PatternDistribution, d2: PatternDistribution):
    """Sum over generators of the l1 distance of the {e, s_i} pair marginals."""
    total = 0
    for i in range(1, ctx.rank + 1):
        window = sort_words([(), (i,)])
        total += l1_distance(d1.project(window), d2.project(window))
    return total


@dataclass(frozen=True)
class BlockCode:
    """A continuous observable with window radius w: a dense table from
    patterns on the radius-w ball to output symbols."""

    window_radius: int
    alphabet: Alphabet
    table: Mapping[tuple, object]

    def __post_init__(self):
        size = len(self.alphabet.symbols)
        for key in self.table:
            for sym in key:
                if sym not in self.alphabet.symbols:
                    raise InputError(f"table key uses unknown symbol {sym!r}")
        # density is checked against the key length; apply_block_code verifies
        # that length against the actual ball of the window radius
        lengths = {len(k) for k in self.table}
        if len(lengths) != 1:
            raise InputError("block code table keys must share the window size")
        (cells,) = lengths
        if len(self.table) != size**cells:
            raise InputError(
                f"block code table must be total: expected {size ** cells} entries, got {len(self.table)}"
            )


def identity_code(alphabet: Alphabet) -> BlockCode:
    return BlockCode(0, alphabet, {(s,): s for s in alphabet.symbols})


def join_code(ctx: FreeGroupCtx, alphabet: Alphabet, m: int) -> BlockCode:
    """The radius-m join observable: a pattern maps to itself as a tuple."""
    cells = len(ctx.ball(m))
    table = {key: key for key in iter_product(alphabet.symbols, repeat=cells)}
    return BlockCode(m, alphabet, table)


def apply_block_code(
    ctx: FreeGroupCtx, code: BlockCode, action: FiniteAction, labels: Sequence
) -> tuple:
    """Recode a labeling through the observable: y(v) = code(pullback name at v)."""
    window = ctx.ball(code.window_radius)
    if any(len(k) != len(window) for k in code.table):
        raise InputError("block code table does not match the window ball")
    out = []
    for key in _pullback_keys(action, labels, window):
        try:
            out.append(code.table[key])
        except KeyError:
            raise InputError(f"block code table missing pattern {key!r}") from None
    return tuple(out)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def one_site_law(probs: Iterable) -> PatternDistribution:
    """The law on the one-word window ((),) giving the k-th probability to
    the k-th symbol, as ``shannon_entropy`` takes it."""
    return PatternDistribution(((),), {(k,): p for k, p in enumerate(probs)})


def bernoulli_weight(base: Mapping, rank: int) -> Weight:
    """Product weight: vertex = base, edge(a,b;i) = base(a) * base(b)."""
    for p in base.values():
        if float(p) < 0:
            raise WeightError("base probabilities must be nonnegative")
    total = sum(base.values())
    if abs(float(total) - 1.0) > PROB_TOL:
        raise WeightError("base must sum to 1")
    alphabet = tuple(base)
    edge = {
        (a, b, i): base[a] * base[b]
        for a in alphabet
        for b in alphabet
        for i in range(1, rank + 1)
    }
    return Weight.from_tables(rank, alphabet, dict(base), edge)


def weight_estimate(ctx: FreeGroupCtx, w: Weight, window_radius: int, epsilon, n_list, **options) -> EstimateResult:
    """``f_estimate`` against the weight's marginal on the radius-``window_radius``
    ball, counting labelings over its alphabet: the target and alphabet that
    ``f-estimate`` builds from a weight."""
    target = marginal_distribution(w, ctx.ball(window_radius))
    return f_estimate(ctx, target, w.alphabet, epsilon, n_list, **options)


def window_structure(window: Sequence[Word], rank: int):
    """Edges and a spanning order for a connected word set, by breadth-first
    search over the right-Cayley adjacency: the oracle of the prefix-tree
    walk in ``marginal_distribution``.

    Returns (edges, order) where edges are (parent_pos, child_pos, i, forward)
    in BFS order from position 0 and order lists positions reached.  Raises if
    the set is not connected in the right-Cayley tree.
    """
    index = {w: k for k, w in enumerate(window)}
    adj: list[list[tuple[int, int, bool]]] = [[] for _ in window]
    for k, g in enumerate(window):
        for i in range(1, rank + 1):
            h = mul(g, (i,))
            j = index.get(h)
            if j is not None:
                # edge (g, g s_i): forward from k means pair (sym_k, sym_j)
                adj[k].append((j, i, True))
                adj[j].append((k, i, False))
    seen = [False] * len(window)
    seen[0] = True
    order = [0]
    edges: list[tuple[int, int, int, bool]] = []
    head = 0
    while head < len(order):
        k = order[head]
        head += 1
        for j, i, forward in adj[k]:
            if not seen[j]:
                seen[j] = True
                order.append(j)
                edges.append((k, j, i, forward))
    if not all(seen):
        raise InputError("word set is not connected in the Cayley tree")
    return edges, order


def pattern_probability(w: Weight, pattern: Pattern):
    """Probability of a pattern on a connected subtree under the weight's
    Markov measure.  Domains not containing the identity are translated
    there first; the result is translation-invariant."""
    domain = pattern.domain
    values = pattern.values
    if () not in pattern:
        base = domain[0]
        shifted = Pattern([mul(tuple(-l for l in reversed(base)), g) for g in domain], values)
        return pattern_probability(w, shifted)
    edges, order = window_structure(domain, w.rank)
    prob = w.vertex_prob(values[order[0]])
    for parent, child, i, forward in edges:
        vp = w.vertex_prob(values[parent])
        if float(vp) == 0.0:
            return 0 if isinstance(vp, (int, Fraction)) else 0.0
        if forward:
            pair = w.edge_prob(values[parent], values[child], i)
        else:
            pair = w.edge_prob(values[child], values[parent], i)
        prob = prob * pair / vp
    return prob


def linear_combination(terms) -> EntropyValue:
    """sum c h over (integer c, EntropyValue h): a prime-log combination
    when every h is exact, a float otherwise."""
    if all(h.is_exact for _, h in terms):
        combo: dict[int, Fraction] = {}
        for c, h in terms:
            for p, x in h.combo.items():
                combo[p] = combo.get(p, 0) + c * x
        return EntropyValue.exact(combo)
    return EntropyValue(sum(c * float(h) for c, h in terms))


def window_coefficients(window: Sequence[Word], rank: int) -> list[int]:
    """Integers c with H(marginal on the window) = sum_j c_j entropies[j],
    over ``Weight.entropies`` = (H(vertex), H(edge_1), ..., H(edge_r)).

    The marginal is a tree-indexed chain: the identity contributes
    H(vertex), and each further word g contributes the entropy of its
    one-step conditional, H(edge_i) - H(vertex) with i = |last letter of g|.
    """
    c = [1] + [0] * rank
    for _, letter in _tree_edges(sort_words(window)):
        c[0] -= 1
        c[abs(letter)] += 1
    return c


def F_coefficients(ctx: FreeGroupCtx, k: int) -> tuple[int, ...]:
    """(1 - 2r) c(B_k) + sum_i c(B_k union s_i B_k) for the ball B_k of the
    join radius k, with c as in ``window_coefficients``: the chain rule's
    account of the functional, which ``F_value`` takes to be (1 - 2r, 1, ..., 1)."""
    ball = ctx.ball(k)
    r = ctx.rank
    total = [(1 - 2 * r) * c for c in window_coefficients(ball, r)]
    for i in range(1, r + 1):
        union = set(ball) | {mul((i,), g) for g in ball}
        total = [t + c for t, c in zip(total, window_coefficients(union, r))]
    return tuple(total)


def twisted_F(ctx: FreeGroupCtx, w: Weight, auto: Automorphism, k: int) -> EntropyValue:
    """F_k of the field y(g) = x(phi(g)), with x drawn from the weight's
    Markov measure and phi the automorphism: (1 - 2r) H(y on B_k) +
    sum_i H(y on B_k union s_i B_k).  Exact for an exact weight.

    The field y is x seen through an orbit change of bounded displacement,
    so its invariant is the weight's.  The law of y on a window W is that of
    x on phi(W): the marginal on the prefix hull of phi(W), the least
    connected window holding it, projected onto phi(W).
    """

    def entropy(window) -> EntropyValue:
        image = [auto.apply(g) for g in window]
        hull = {g[:j] for g in image for j in range(len(g) + 1)}
        return shannon_entropy(marginal_distribution(w, hull).project(image))

    ball = ctx.ball(k)
    terms = [(1 - 2 * ctx.rank, entropy(ball))]
    for i in range(1, ctx.rank + 1):
        terms.append((1, entropy(set(ball) | {mul((i,), g) for g in ball})))
    return linear_combination(terms)


# ---------------------------------------------------------------------------
# constraint systems
# ---------------------------------------------------------------------------


def nn_spec(alphabet: Sequence, forbidden_pairs: Sequence[tuple]) -> SftSpec:
    """Nearest-neighbor constraint system from (a, b, i) forbidden triples."""
    patterns = tuple(
        Pattern([IDENTITY, (i,)], [a, b]) for (a, b, i) in forbidden_pairs
    )
    return SftSpec(alphabet=tuple(alphabet), forbidden=patterns)


def sft_spec_to_json(ctx: FreeGroupCtx, spec: SftSpec) -> dict:
    """The wire form that ``SftSpec.from_json`` reads."""
    return {
        "alphabet": list(spec.alphabet or ()),
        "forbidden": [
            {ctx.format(g): w[g] for g in w.domain} for w in spec.forbidden
        ],
    }


def zrho_admissible(ctx: FreeGroupCtx, rho: int, action: FiniteAction, labels) -> bool:
    """Whether every pullback pattern of the configuration passes both axioms."""
    return all(report.ok for report in zrho_pullbacks(ctx, rho, action, labels).reports)


def orbit_of(action: FiniteAction, v: int) -> tuple[int, ...]:
    """Vertices reachable from v under all generators and inverses."""
    return tuple(sorted(_bfs(action, v, set())))


def check_local(spec: SftSpec, action: FiniteAction, labels, v: int) -> bool:
    """No forbidden pattern at vertex v itself, read one word at a time:
    the oracle of both paths of ``sft_check_all``."""
    for w in spec.forbidden:
        if all(labels[act(action, inv(f), v)] == w[f] for f in w.domain):
            return False
    return True


def sft_check_vertex(
    ctx: FreeGroupCtx, spec: SftSpec, action: FiniteAction, labels, v: int
) -> bool:
    """Whether the pullback name at v lies in the constraint system.

    Shifts of the pullback name realize every vertex in the orbit of v, so
    this inspects the whole orbit, not just v.
    """
    return all(check_local(spec, action, labels, u) for u in orbit_of(action, v))


def identity_symbol(ctx: FreeGroupCtx) -> tuple:
    return tuple((letter,) for letter in ctx.letters)


def telescope_walk(
    ctx: FreeGroupCtx, pattern: Pattern, base: Word, max_len: int
) -> Iterator[tuple[Word, Word]]:
    """All (reduced word u, telescoped product) pairs with 1 <= |u| <= max_len,
    depth first: the oracle of ``sft.telescope``.

    The product of u = s_1...s_n from ``base`` is
    z_{base}(s_1) z_{base s_1}(s_2) ... z_{base s_1..s_{n-1}}(s_n); every
    prefix position base * s_1..s_{k-1} must lie in the pattern domain.
    """
    letters = ctx.letters
    stack = [(IDENTITY, IDENTITY)]
    while stack:
        prefix, prod = stack.pop()
        pos = mul(base, prefix)
        if pos not in pattern:
            raise InputError(f"pattern domain misses position {pos}")
        sym = pattern[pos]
        last = prefix[-1] if prefix else 0
        for letter in reversed(letters):
            if letter == -last:
                continue
            word = prefix + (letter,)
            new_prod = mul(prod, symbol_entry(sym, letter))
            yield word, new_prod
            if len(word) < max_len:
                stack.append((word, new_prod))


# ---------------------------------------------------------------------------
# orbit-change maps: the two actions, the encoding E, diagnostics
# ---------------------------------------------------------------------------


def defined(phi: LocalBijection, g: Word) -> bool:
    return g in phi.table


def validate_bijection(ctx: FreeGroupCtx, phi: LocalBijection) -> None:
    """Raise ``InputError`` unless phi's table covers exactly its window
    ball, fixes the identity, is injective and moves each Cayley edge, in
    both directions, by at most rho."""
    ball = ctx.ball(phi.window)
    if set(phi.table) != set(ball):
        raise InputError("table must cover exactly the window ball")
    if phi.table[IDENTITY] != IDENTITY:
        raise InputError("orbit-change maps must fix the identity")
    if len(set(phi.table.values())) != len(phi.table):
        raise InputError("table is not injective on its window")
    for name, table in (("displacement", phi.table), ("inverse displacement", phi.inverse)):
        for g in table:
            for letter in ctx.letters:
                h = mul(g, (letter,))
                if h in table:
                    step = mul(inv(table[g]), table[h])
                    if len(step) > phi.rho:
                        raise InputError(
                            f"{name} {len(step)} at ({g}, {h}) exceeds rho={phi.rho}"
                        )


def bijection_to_json(ctx: FreeGroupCtx, phi: LocalBijection) -> dict:
    return {
        "window": phi.window,
        "rho": phi.rho,
        "map": {ctx.format(g): ctx.format(v) for g, v in sorted(phi.table.items())},
    }


def bijection_from_json(ctx: FreeGroupCtx, data: dict) -> LocalBijection:
    try:
        table = {ctx.parse(k): ctx.parse(v) for k, v in data["map"].items()}
        out = LocalBijection(int(data["window"]), int(data["rho"]), table)
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed orbit-map json: {exc}") from exc
    validate_bijection(ctx, out)
    return out


def bijection(auto: Automorphism, window: int) -> LocalBijection:
    """The automorphism's table on the radius-``window`` ball."""
    table = {g: auto.apply(g) for g in auto.ctx.ball(window)}
    return LocalBijection(window, max(map(len, auto.images.values())), table)


def check_automorphism_by_scan(ctx: FreeGroupCtx, images: Mapping[str, str]) -> None:
    """The bijectivity check that ``Automorphism`` ran before it relied on
    the Hopfian property: no two words of the radius-2rho ball share an
    image, and every generator has a preimage within radius 2rho+2, where rho
    is the longest generator image.  Raises ``ConstructionError`` otherwise."""
    full = {}
    for name, word in images.items():
        i, img = ctx.parse(name)[0], ctx.parse(word)
        full[i], full[-i] = img, inv(img)

    def apply(w: Word) -> Word:
        out = IDENTITY
        for letter in w:
            out = mul(out, full[letter])
        return out

    rho = max(len(img) for img in full.values())
    seen = {}
    for g in ctx.ball(2 * rho):
        img = apply(g)
        if img in seen:
            raise ConstructionError(f"{ctx.format(seen[img])} and {ctx.format(g)} collide")
        seen[img] = g
    preimages = {apply(w) for w in ctx.ball(2 * rho + 2)}
    for i in range(1, ctx.rank + 1):
        if (i,) not in preimages:
            raise ConstructionError(f"generator {ctx.letter_name(i)} has no preimage")


def agree_on_common_window(a: LocalBijection, b: LocalBijection) -> bool:
    common = set(a.table) & set(b.table)
    return all(a.table[g] == b.table[g] for g in common)


def realized_displacement(ctx: FreeGroupCtx, table: Mapping[Word, Word]) -> int:
    worst = 1
    for g, val in table.items():
        for letter in ctx.letters:
            h = mul(g, (letter,))
            if h in table:
                worst = max(worst, len(mul(inv(val), table[h])))
    return worst


def compose(ctx: FreeGroupCtx, outer: LocalBijection, inner: LocalBijection) -> LocalBijection:
    """outer after inner, on the largest ball where the chain stays evaluable."""
    table = {}
    radius = 0
    for m in range(inner.window + 1):
        ball = ctx.ball(m)
        if all(defined(inner, g) and defined(outer, inner(g)) for g in ball):
            radius = m
        else:
            break
    for g in ctx.ball(radius):
        table[g] = outer(inner(g))
    if radius < 1:
        raise WindowError("composition leaves no usable window")
    return LocalBijection(radius, realized_displacement(ctx, table), table)


def invert(ctx: FreeGroupCtx, phi: LocalBijection) -> LocalBijection:
    """The inverse table restricted to the largest ball inside the image."""
    inverse = phi.inverse
    radius = -1
    for m in range(phi.window + 1):
        if all(g in inverse for g in ctx.ball(m)):
            radius = m
        else:
            break
    if radius < 0:
        raise WindowError("image does not cover any ball")
    table = {g: inverse[g] for g in ctx.ball(radius)}
    return LocalBijection(radius, realized_displacement(ctx, table), table)


def theta_action(ctx: FreeGroupCtx, h: Word, phi: LocalBijection) -> LocalBijection:
    """(h . phi)(g) = phi(h^-1)^-1 phi(h^-1 g); window shrinks by |h|."""
    new_window = phi.window - len(h)
    if new_window < 0:
        raise WindowError(f"window {phi.window} exhausted by translate of length {len(h)}")
    h_inv = inv(h)
    base = inv(phi(h_inv))
    table = {g: mul(base, phi(mul(h_inv, g))) for g in ctx.ball(new_window)}
    return LocalBijection(new_window, phi.rho, table)


def upsilon_action(ctx: FreeGroupCtx, h: Word, phi: LocalBijection) -> LocalBijection:
    """(h . phi)(g) = h phi(phi^-1(h^-1) g), realized as the theta translate
    by phi^-1(h^-1)^-1; window shrinks by |phi^-1(h^-1)| <= rho |h|."""
    g0 = phi.inverse[inv(h)]
    return theta_action(ctx, inv(g0), phi)


def encode_E(ctx: FreeGroupCtx, phi: LocalBijection) -> Pattern:
    """Edge-label encoding on the radius window-1 ball: the symbol at h sends
    each signed letter s to phi(h)^-1 phi(h s)."""
    radius = phi.window - 1
    if radius < 0:
        raise WindowError("window too small to encode")
    values = []
    for h in ctx.ball(radius):
        base = inv(phi(h))
        sym = []
        for letter in ctx.letters:
            step = mul(base, phi(mul(h, (letter,))))
            if len(step) > phi.rho:
                raise InputError(
                    f"displacement {len(step)} at {h} exceeds the declared bound {phi.rho}"
                )
            sym.append(step)
        values.append(tuple(sym))
    return Pattern._on_ball(ctx, radius, values)


def compose_after_inverse(phi: LocalBijection, ypattern: Pattern) -> Pattern:
    """y o phi^-1: the value of y at f reappears at phi(f).  The oracle of the
    column tables through which ``rearrange`` transports labels."""
    domain = []
    values = []
    for f in ypattern.domain:
        if defined(phi, f):
            domain.append(phi(f))
            values.append(ypattern[f])
    if not domain:
        raise WindowError("no overlap between the label window and the map window")
    return Pattern(domain, values)


def sym_distance(
    ctx: FreeGroupCtx, phi: LocalBijection, psi: LocalBijection, depth: int
) -> float:
    """Truncated pointwise-convergence metric over the shortlex enumeration:
    sum 2^-k over disagreements of the maps and of their inverses.  Positions
    outside either window count as disagreements."""
    total = 0.0
    phi_inv = phi.inverse
    psi_inv = psi.inverse
    for k, g in enumerate(ctx.ball(depth), start=1):
        weight = 2.0**-k
        if phi.table.get(g, ("?",)) != psi.table.get(g, ("!",)):
            total += weight
        if phi_inv.get(g, ("?",)) != psi_inv.get(g, ("!",)):
            total += weight
    return total
