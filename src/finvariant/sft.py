"""Constraint systems on shift spaces: forbidden-pattern checks over finite
actions, the axiom verifier for bounded orbit-change configurations, and a
budgeted backtracking sampler for constrained labelings.

The orbit-change alphabet assigns to every signed generator a word of length
at most rho.  A configuration is admissible when every pullback pattern on
the radius rho^2+1 ball satisfies:

  Axiom 1:  z_e(s) * z_s(s^-1) = e for every signed generator s;
  Axiom 2:  every h of length <= rho has exactly one reduced word
            s_1 ... s_n with n <= rho^2 + 1 whose telescoped product
            z_e(s_1) z_{s_1}(s_2) ... equals h, and that witness satisfies
            the geodesic bound n <= rho |h|.

Membership is predicate-backed: the forbidden-pattern set is the complement
of the axiom-satisfying patterns and is never materialized.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Callable

from .actions import FiniteAction, derive_seed
from .errors import InputError
from .freegroup import IDENTITY, FreeGroupCtx, Word, inv, mul
from .shift import Pattern, pullback_name


def symbol_entry(symbol: tuple, letter: int) -> Word:
    """The entry for a signed letter; symbols follow the letter order
    +1, -1, +2, -2, ..., so +i sits at 2i - 2 and -i at 2i - 1."""
    return symbol[2 * letter - 2 if letter > 0 else -2 * letter - 1]


@dataclass(frozen=True)
class SftSpec:
    """Forbidden-pattern description of a constraint system.

    Either an explicit list of forbidden patterns (``nearest_neighbor`` when
    every domain is an {e, s_i} pair) or a predicate over patterns on the
    radius ``predicate_radius`` ball.  ``edge_filter`` is an optional sound
    but incomplete pairwise condition used by the sampler for early pruning.
    """

    alphabet: tuple | None = None
    forbidden: tuple = ()
    nearest_neighbor: bool = False
    predicate: Callable[[Pattern], bool] | None = None
    predicate_radius: int | None = None
    edge_filter: Callable | None = None

    def __post_init__(self):
        if self.predicate is not None and self.predicate_radius is None:
            raise InputError("predicate specs need a window radius")
        if self.nearest_neighbor:
            for w in self.forbidden:
                if len(w.domain) != 2 or w.domain[0] != IDENTITY or len(w.domain[1]) != 1 or w.domain[1][0] < 0:
                    raise InputError("nearest-neighbor patterns live on {e, s_i} domains")

    @property
    def forbidden_pairs(self) -> frozenset:
        """(a, b, i) triples excluded along generator edges; nearest-neighbor only."""
        if not self.nearest_neighbor:
            raise InputError("forbidden pairs only defined for nearest-neighbor specs")
        pairs = set()
        for w in self.forbidden:
            i = w.domain[1][0]
            pairs.add((w[IDENTITY], w[w.domain[1]], i))
        return frozenset(pairs)

    def to_json(self, ctx: FreeGroupCtx) -> dict:
        return {
            "alphabet": list(self.alphabet or ()),
            "forbidden": [
                {ctx.format(g): w[g] for g in w.domain} for w in self.forbidden
            ],
            "nearest_neighbor": self.nearest_neighbor,
        }

    @classmethod
    def from_json(cls, ctx: FreeGroupCtx, data: dict) -> "SftSpec":
        try:
            forbidden = tuple(
                Pattern.from_dict({ctx.parse(k): v for k, v in pat.items()})
                for pat in data["forbidden"]
            )
            alphabet = tuple(data["alphabet"])
            nearest_neighbor = bool(data.get("nearest_neighbor", False))
        except (KeyError, TypeError, AttributeError) as exc:
            raise InputError(f"malformed sft json: {exc}") from exc
        for sym in alphabet + tuple(v for pat in forbidden for v in pat.values):
            # symbols are compared and hashed, so a list or object cannot be one
            if isinstance(sym, (list, dict)):
                raise InputError(f"malformed sft json: a symbol must be a string or number, got {sym!r}")
        return cls(alphabet=alphabet, forbidden=forbidden, nearest_neighbor=nearest_neighbor)


# ---------------------------------------------------------------------------
# the axiom verifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomsReport:
    """The verdict on one pattern.  A passing report carries the unique
    telescope witness of every h in the radius-rho ball (the empty word for
    the identity): the inverse of the encoded map, read on that ball."""

    ok: bool
    reason: str | None = None
    witnesses: dict | None = None


def telescope(ctx: FreeGroupCtx, pattern: Pattern, base: Word, depth: int) -> list[Word]:
    """The telescoped product of every word of ``ctx.ball(depth)``, in ball
    order: for u = s_1...s_n it is
    z_{base}(s_1) z_{base s_1}(s_2) ... z_{base s_1..s_{n-1}}(s_n), and the
    empty word's is e.  Each prefix position base * s_1..s_{k-1} must lie in
    the pattern domain.
    """
    tree = ctx.ball_tree(depth)
    products: list[Word] = [IDENTITY] * len(tree)
    # a parent's children are consecutive in the tree, so its symbol is
    # looked up once for all of them
    last = -1
    for k in range(1, len(tree)):
        _, parent, letter = tree[k]
        if parent != last:
            last = parent
            word = tree[parent][0]
            sym = pattern[mul(base, word) if base else word]
        products[k] = mul(products[parent], symbol_entry(sym, letter))
    return products


def axioms_check(ctx: FreeGroupCtx, rho: int, pattern: Pattern) -> AxiomsReport:
    """Verify both axioms for a pattern on the radius rho^2+1 ball.

    One walk over all reduced words up to length rho^2+1 collects every
    telescope witness; each target h in the radius-rho ball must then have
    exactly one witness, of length at most rho|h|.  A target whose only
    witnesses exceed the geodesic bound is reported distinctly.
    """
    if rho < 1:
        raise InputError("rho must be >= 1")
    depth = rho * rho + 1
    needed = set(ctx.ball(depth))
    if not needed.issubset(set(pattern.domain)):
        raise InputError(f"pattern must cover the radius-{depth} ball")
    base_sym = pattern[IDENTITY]
    for letter in ctx.letters:
        out = symbol_entry(base_sym, letter)
        back = symbol_entry(pattern[(letter,)], -letter)
        if mul(out, back) != IDENTITY:
            return AxiomsReport(
                False,
                f"axiom 1 fails for letter {ctx.letter_name(letter)}: "
                f"{ctx.format(out)} * {ctx.format(back)} != e",
            )
    targets = {h: [] for h in ctx.ball(rho)}
    products = telescope(ctx, pattern, IDENTITY, depth)
    for word, prod in zip(ctx.ball(depth)[1:], products[1:]):
        if prod in targets:
            targets[prod].append(word)
    for h, witnesses in targets.items():
        if h == IDENTITY:
            # the empty word is the implicit witness; any other breaks uniqueness
            if witnesses:
                return AxiomsReport(
                    False,
                    f"axiom 2 fails: nonempty witness {ctx.format(witnesses[0])} telescopes to e",
                )
            continue
        if not witnesses:
            return AxiomsReport(False, f"axiom 2 fails: no witness for {ctx.format(h)}")
        if len(witnesses) > 1:
            ws = ", ".join(ctx.format(u) for u in witnesses[:3])
            return AxiomsReport(
                False, f"axiom 2 fails: multiple witnesses for {ctx.format(h)}: {ws}"
            )
        if len(witnesses[0]) > rho * len(h):
            return AxiomsReport(
                False,
                f"axiom 2 fails: witness for {ctx.format(h)} has length "
                f"{len(witnesses[0])}, beyond the geodesic bound {rho * len(h)}",
            )
    return AxiomsReport(
        True, witnesses={h: ws[0] if ws else IDENTITY for h, ws in targets.items()}
    )


def _zrho_edge_filter(ctx: FreeGroupCtx, rho: int):
    # reduced words a, b multiply to e exactly when b = a^-1, so the inverses
    # of the alphabet's words are looked up instead of multiplied; the symbol
    # positions are read from symbol_entry once, since calling it per edge
    # cost about 15% of the sampler's time
    inverse = {w: inv(w) for w in ctx.ball(rho)}
    slots = tuple(range(2 * ctx.rank))
    where = {t: (symbol_entry(slots, t), symbol_entry(slots, -t)) for t in ctx.letters}

    def ok(sym_v: tuple, sym_u: tuple, letter: int) -> bool:
        # necessary pair condition from axiom 1 along the edge u = sigma(letter)^-1 v:
        # z_v(s) z_u(s^-1) = e
        i, j = where[letter]
        out = sym_v[i]
        expected = inverse.get(out)
        return sym_u[j] == (inv(out) if expected is None else expected)

    return ok


def zrho_spec(ctx: FreeGroupCtx, rho: int) -> SftSpec:
    """The constraint system whose admissible configurations encode
    displacement-rho orbit-change maps.  Membership is predicate-backed; the
    forbidden set is astronomically large and never materialized.  A symbol
    is a tuple of words, one per signed generator, each of length at most
    rho."""
    alphabet = tuple(iter_product(ctx.ball(rho), repeat=2 * ctx.rank))

    def predicate(pattern: Pattern) -> bool:
        return axioms_check(ctx, rho, pattern).ok

    return SftSpec(
        alphabet=alphabet,
        predicate=predicate,
        predicate_radius=rho * rho + 1,
        edge_filter=_zrho_edge_filter(ctx, rho),
    )


# ---------------------------------------------------------------------------
# checking configurations over finite actions
# ---------------------------------------------------------------------------


def _check_local(ctx: FreeGroupCtx, spec: SftSpec, action: FiniteAction, labels, v: int) -> bool:
    """No forbidden pattern (or predicate failure) at vertex v itself."""
    if spec.predicate is not None:
        return spec.predicate(pullback_name(ctx, action, labels, v, spec.predicate_radius))
    for w in spec.forbidden:
        if all(labels[action.apply(inv(f), v)] == w[f] for f in w.domain):
            return False
    return True


def sft_check_all(ctx: FreeGroupCtx, spec: SftSpec, action: FiniteAction, labels) -> bool:
    """Every pullback name avoids the forbidden set.

    For nearest-neighbor specs this walks each Schreier edge once; the
    equivalence of that fast path with the general check is part of the test
    suite.
    """
    n = action.n
    if spec.predicate is None and spec.nearest_neighbor:
        pairs = spec.forbidden_pairs
        if not pairs:
            return True
        by_gen: dict[int, set] = {}
        for a, b, i in pairs:
            by_gen.setdefault(i, set()).add((a, b))
        for i, bad in by_gen.items():
            perm_inv = action.letter_perm(-i)
            for v in range(n):
                if (labels[v], labels[perm_inv[v]]) in bad:
                    return False
        return True
    return all(_check_local(ctx, spec, action, labels, v) for v in range(n))


def _bfs(action: FiniteAction, start: int, seen: set) -> list[int]:
    """Vertices of start's orbit not yet in ``seen``, in BFS order over the
    generators and their inverses; marks them seen."""
    seen.add(start)
    order = [start]
    for u in order:
        for i in range(1, action.rank + 1):
            for w in (action.letter_perm(i)[u], action.letter_perm(-i)[u]):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
    return order


# ---------------------------------------------------------------------------
# sampling admissible configurations
# ---------------------------------------------------------------------------


class _BudgetExhausted(Exception):
    pass


def _bfs_vertex_order(action: FiniteAction) -> list[int]:
    seen: set = set()
    order: list[int] = []
    for start in range(action.n):
        if start not in seen:
            order += _bfs(action, start, seen)
    return order


def sample_sft_config(
    ctx: FreeGroupCtx,
    spec: SftSpec,
    action: FiniteAction,
    seed: int,
    budget: int = 20000,
    restarts: int = 4,
    hint: tuple | None = None,
) -> tuple | None:
    """Backtracking search for a labeling passing the constraint system.

    Vertices are assigned in BFS order from vertex 0; symbol order is the
    hint's symbol first, then a seed-shuffled pass over the alphabet.  Each
    restart derives a fresh seed.  The search is budgeted rather than
    exhaustive, so ``None`` means "not found", which is not an error.
    Deterministic given (seed, action, hint).
    """
    if spec.alphabet is None:
        raise InputError("sampling needs an explicit alphabet")
    n = action.n
    order = _bfs_vertex_order(action)
    pos = {v: k for k, v in enumerate(order)}
    symbols = list(spec.alphabet)

    # constraints indexed by the BFS position at which they become decidable
    checks_at: list[list] = [[] for _ in range(n)]

    if spec.edge_filter is not None:
        seen_pairs = set()
        for v in range(n):
            for letter in ctx.letters:
                u = action.letter_perm(-letter)[v]
                # (v, u, s) and (u, v, s^-1) express the same pair condition
                key = (v, u, letter) if letter > 0 else (u, v, -letter)
                if key in seen_pairs:
                    continue
                seen_pairs.add(key)
                checks_at[max(pos[v], pos[u])].append(("edge", v, u, letter))

    if spec.predicate is not None:
        window = ctx.ball(spec.predicate_radius)
        for v in range(n):
            verts = tuple(action.apply(inv(g), v) for g in window)
            checks_at[max(pos[u] for u in verts)].append(("predicate", v))
    else:
        for w in spec.forbidden:
            cols = [tuple(action.apply(inv(f), v) for v in range(n)) for f in w.domain]
            for v in range(n):
                verts = tuple(col[v] for col in cols)
                checks_at[max(pos[u] for u in verts)].append(
                    ("pattern", verts, w.values)
                )

    def run_checks(assign: list, k: int) -> bool:
        for check in checks_at[k]:
            kind = check[0]
            if kind == "edge":
                _, v, u, letter = check
                if not spec.edge_filter(assign[v], assign[u], letter):
                    return False
            elif kind == "pattern":
                _, verts, values = check
                if all(assign[u] == val for u, val in zip(verts, values)):
                    return False
            else:
                _, v = check
                if not spec.predicate(
                    pullback_name(ctx, action, assign, v, spec.predicate_radius)
                ):
                    return False
        return True

    for restart in range(restarts):
        rng = random.Random(derive_seed(seed, restart))
        per_vertex_symbols = []
        for v in range(n):
            shuffled = symbols[:]
            rng.shuffle(shuffled)
            if hint is not None:
                h = hint[v]
                shuffled = [h] + [s for s in shuffled if s != h]
            per_vertex_symbols.append(shuffled)
        assign: list = [None] * n
        left = budget

        def backtrack(k: int) -> bool:
            nonlocal left
            if k == n:
                return True
            v = order[k]
            for sym in per_vertex_symbols[v]:
                left -= 1
                if left < 0:
                    raise _BudgetExhausted
                assign[v] = sym
                if run_checks(assign, k) and backtrack(k + 1):
                    return True
            assign[v] = None
            return False

        try:
            if backtrack(0):
                return tuple(assign)
        except _BudgetExhausted:
            continue
    return None
