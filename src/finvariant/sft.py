"""Constraint systems on shift spaces: forbidden-pattern checks over finite
actions, the axiom verifier for bounded orbit-change configurations, and a
budgeted backtracking sampler for admissible ones.

The orbit-change alphabet assigns to every signed generator a word of length
at most rho.  A configuration is admissible when every pullback pattern on
the radius rho^2+1 ball satisfies:

  Axiom 1:  z_e(s) * z_s(s^-1) = e for every signed generator s;
  Axiom 2:  every h of length <= rho has exactly one reduced word
            s_1 ... s_n with n <= rho^2 + 1 whose telescoped product
            z_e(s_1) z_{s_1}(s_2) ... equals h, and that witness satisfies
            the geodesic bound n <= rho |h|.

Admissibility is decided by checking the axioms on each pattern; its
forbidden-pattern set is never materialized.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import product as iter_product
from operator import itemgetter

from .actions import FiniteAction, derive_seed
from .errors import InputError
from .freegroup import IDENTITY, FreeGroupCtx, Word, inv, mul
from .shift import Pattern, window_columns


def symbol_entry(symbol: tuple, letter: int) -> Word:
    """The entry for a signed letter; symbols follow the letter order
    +1, -1, +2, -2, ..., so +i sits at 2i - 2 and -i at 2i - 1."""
    return symbol[2 * letter - 2 if letter > 0 else -2 * letter - 1]


@dataclass(frozen=True)
class SftSpec:
    """Forbidden-pattern description of a constraint system.

    When every forbidden domain is an {e, s_i} pair the system is
    nearest-neighbor, and ``forbidden_pairs`` holds the (a, b, i) triples it
    excludes along generator edges; otherwise ``forbidden_pairs`` is None.
    """

    alphabet: tuple | None = None
    forbidden: tuple = ()
    forbidden_pairs: frozenset | None = field(init=False, compare=False)

    def __post_init__(self):
        pairs = set()
        for w in self.forbidden:
            if len(w.domain) != 2 or w.domain[0] != IDENTITY or len(w.domain[1]) != 1 or w.domain[1][0] < 0:
                pairs = None
                break
            pairs.add((w.values[0], w.values[1], w.domain[1][0]))
        object.__setattr__(self, "forbidden_pairs", None if pairs is None else frozenset(pairs))

    @classmethod
    def from_json(cls, ctx: FreeGroupCtx, data: dict) -> "SftSpec":
        try:
            forbidden = tuple(
                Pattern([ctx.parse(k) for k in pat.keys()], list(pat.values()))
                for pat in data["forbidden"]
            )
            if not isinstance(data["alphabet"], list):
                raise InputError(f"an sft's alphabet must be a json list, got {data['alphabet']!r}")
            alphabet = tuple(data["alphabet"])
            nearest_neighbor = data.get("nearest_neighbor", False)
        except (KeyError, TypeError, AttributeError) as exc:
            raise InputError(f"malformed sft json: {exc}") from exc
        if type(nearest_neighbor) is not bool:
            raise InputError(f"malformed sft json: nearest_neighbor must be true or false, got {nearest_neighbor!r}")
        for sym in alphabet + tuple(v for pat in forbidden for v in pat.values):
            # symbols are compared and hashed, so a list or object cannot be one
            if isinstance(sym, (list, dict)):
                raise InputError(f"malformed sft json: a symbol must be a string or number, got {sym!r}")
        spec = cls(alphabet=alphabet, forbidden=forbidden)
        # the key is optional; the domains decide, and a true key must agree
        if nearest_neighbor and spec.forbidden_pairs is None:
            raise InputError("nearest-neighbor patterns live on {e, s_i} domains")
        return spec


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
    ball = ctx.ball(depth)
    # domains are shortlex-sorted, so one covering the ball starts with it
    if pattern.domain[: len(ball)] != ball:
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


# ---------------------------------------------------------------------------
# checking configurations over finite actions
# ---------------------------------------------------------------------------


def sft_check_all(spec: SftSpec, action: FiniteAction, labels) -> bool:
    """Every pullback name avoids the forbidden set.

    A nearest-neighbor spec walks each Schreier edge once; any other reads
    each forbidden pattern's domain through ``window_columns`` at every
    vertex.  Both paths are checked against a per-vertex oracle in the test
    suite.
    """
    n = action.n
    pairs = spec.forbidden_pairs
    if pairs is not None:
        by_gen: dict[int, set] = {}
        for a, b, i in pairs:
            by_gen.setdefault(i, set()).add((a, b))
        for i, bad in by_gen.items():
            perm_inv = action.letter_perm(-i)
            for v in range(n):
                if (labels[v], labels[perm_inv[v]]) in bad:
                    return False
        return True
    for w in spec.forbidden:
        cols = window_columns(action, w.domain)
        for v in range(n):
            if all(labels[col[v]] == x for col, x in zip(cols, w.values)):
                return False
    return True


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


def bfs_vertex_order(action: FiniteAction) -> list[int]:
    """Every vertex once, in BFS order of the Schreier graph, one orbit after
    another from its lowest vertex."""
    seen: set = set()
    order: list[int] = []
    for start in range(action.n):
        if start not in seen:
            order += _bfs(action, start, seen)
    return order


def _candidate_index(candidates: list, slots: tuple, loops: tuple, inverse: dict) -> dict:
    """The positions in ``candidates`` grouped by the entries at ``slots``
    (one entry alone, several as a tuple, none as ()), in ascending order,
    keeping only the symbols that pass each loop (a, b): sym[b] = sym[a]^-1."""
    index = defaultdict(list)
    key = itemgetter(*slots) if slots else lambda sym: ()
    if loops:
        for p, sym in enumerate(candidates):
            if all(sym[b] == inverse[sym[a]] for a, b in loops):
                index[key(sym)].append(p)
    else:
        for p, value in enumerate(map(key, candidates)):
            index[value].append(p)
    return index


def sample_sft_config(
    ctx: FreeGroupCtx,
    rho: int,
    action: FiniteAction,
    seed: int,
    budget: int = 20000,
    restarts: int = 4,
) -> tuple | None:
    """Backtracking search for an admissible z_rho configuration.

    Symbols are tuples of words of ``ctx.ball(rho)``, one per signed
    generator.  Vertices are assigned in BFS order from vertex 0, each in a
    seed-shuffled order of the alphabet.  Axiom 1 along a Schreier edge whose
    other end is already assigned fixes one entry of the new symbol to the
    inverse of an entry of the neighbour's, and a loop at a fixed point
    relates two entries of one symbol; an index of the shuffled order by the
    fixed entries picks the candidates that pass every such edge, and only
    those are checked against both axioms at every vertex whose radius
    rho^2+1 pullback they complete.  Every candidate in shuffled order still
    costs one unit of the budget, passing its edges or not, so the index
    changes no result.  Each restart derives a fresh seed.  The search is
    budgeted rather than exhaustive, so ``None`` means "not found", which is
    not an error.  Deterministic given (seed, action).
    """
    if budget < 1:
        raise InputError(f"sampler budget must be >= 1, got {budget}")
    if restarts < 1:
        raise InputError(f"sampler restarts must be >= 1, got {restarts}")
    n = action.n
    order = bfs_vertex_order(action)
    pos = {v: k for k, v in enumerate(order)}
    symbols = list(iter_product(ctx.ball(rho), repeat=2 * ctx.rank))
    # reduced words a, b multiply to e exactly when b = a^-1
    inverse = {w: inv(w) for w in ctx.ball(rho)}
    slot = {t: symbol_entry(range(2 * ctx.rank), t) for t in ctx.letters}
    radius = rho * rho + 1

    # constraints indexed by the BFS position at which they become decidable.
    # A Schreier edge (v, u, s) with u = sigma(s)^-1 v needs
    # z_v(s) z_u(s^-1) = e; it is listed once, along a positive generator,
    # and with one end already assigned it fixes an entry of the other:
    # fixed[k] holds (slot of the new symbol, assigned vertex, its slot).
    # A vertex has one edge of each kind per generator, so no slot is fixed
    # twice.  pullbacks_at[k] holds the vertices of each radius rho^2+1 ball.
    fixed: list[list] = [[] for _ in range(n)]
    loops: list[list] = [[] for _ in range(n)]
    pullbacks_at: list[list] = [[] for _ in range(n)]
    for v in range(n):
        for i in range(1, ctx.rank + 1):
            u = action.letter_perm(-i)[v]
            if u == v:
                loops[pos[v]].append((slot[i], slot[-i]))
            elif pos[v] > pos[u]:
                fixed[pos[v]].append((slot[i], u, slot[-i]))
            else:
                fixed[pos[u]].append((slot[-i], v, slot[i]))
    cols = window_columns(action, ctx.ball(radius))
    for v in range(n):
        verts = tuple(col[v] for col in cols)
        pullbacks_at[max(pos[u] for u in verts)].append(verts)

    for restart in range(restarts):
        rng = random.Random(derive_seed(seed, restart))
        per_vertex_symbols = []
        for v in range(n):
            shuffled = symbols[:]
            rng.shuffle(shuffled)
            per_vertex_symbols.append(shuffled)
        assign: list = [None] * n
        indexes: list = [None] * n
        left = budget

        def backtrack(k: int) -> bool:
            nonlocal left
            if k == n:
                return True
            v = order[k]
            candidates = per_vertex_symbols[v]
            if indexes[k] is None:
                # left only falls within a restart, so no later visit can
                # reach a position beyond the first left + 1
                slots = tuple(s for s, _, _ in fixed[k])
                indexes[k] = _candidate_index(candidates[: left + 1], slots, loops[k], inverse)
            need = tuple(inverse[assign[u][j]] for _, u, j in fixed[k])
            # an itemgetter of one slot gives the entry itself, not a 1-tuple
            last = -1
            for p in indexes[k].get(need[0] if len(need) == 1 else need, ()):
                # the candidates between the last one tried and p fail an edge
                left -= p - last
                if left < 0:
                    raise _BudgetExhausted
                last = p
                assign[v] = candidates[p]
                if all(
                    axioms_check(ctx, rho, Pattern._on_ball(ctx, radius, [assign[u] for u in verts])).ok
                    for verts in pullbacks_at[k]
                ) and backtrack(k + 1):
                    return True
            left -= len(candidates) - 1 - last
            if left < 0:
                raise _BudgetExhausted
            return False

        try:
            if backtrack(0):
                return tuple(assign)
        except _BudgetExhausted:
            continue
    return None
