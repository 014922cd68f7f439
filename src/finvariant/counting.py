"""Counting labelings whose empirical statistics sit near a target, averaging
those counts over random finite actions or over all of them, and the finite-n
growth-rate table for the invariant.

Counts are exact, by a depth-first search of the labeling space A^n under
a configurable cap on |A|^n that cuts every prefix the distance bound or a
forbidden nearest-neighbor pair rules out, and that starts from one symbol
per orbit of the symbol swaps keeping the target and the constraints.
The exact average sums over labeling types and pair tables when the statistic
reads nothing else (edge_star, window radius 0, nearest-neighbor systems), and
walks all n!^r actions otherwise.  Monte Carlo averaging derives one seed per
sample index, so results do not depend on evaluation order.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .actions import FiniteAction, derive_seed, enumerate_actions, hom_count, sample_action
from .errors import InputError, ResourceCapError
from .freegroup import FreeGroupCtx
from .shift import PROB_TOL, PatternDistribution, window_columns
from .sft import SftSpec, bfs_vertex_order, sft_check_all


@dataclass(frozen=True)
class Caps:
    """Desk-scale guardrails, overridable from the CLI."""

    exact_actions: int = 10**6  # n!^r for exhaustive averaging
    labelings: int = 10**7  # |A|^n for exhaustive counting


@dataclass(frozen=True)
class Neighborhood:
    """An l1 ball around a target finite-window distribution, optionally
    intersected with a constraint system.

    ``mode`` selects the statistic: ``window`` compares the full marginal on
    the target's window; ``edge_star`` sums the per-generator pair-marginal
    distances.  epsilon = 0 demands exact statistics and therefore an exact
    rational target.
    """

    target: PatternDistribution
    epsilon: float | Fraction
    mode: str = "window"
    sft: SftSpec | None = None
    # count_omega's set-up per (rank, n, alphabet), built on first use
    _setups: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("window", "edge_star"):
            raise InputError(f"unknown distance mode {self.mode!r}")
        if self.epsilon < 0:
            raise InputError("epsilon must be >= 0")
        if self.epsilon == 0 and not self.target.is_exact:
            raise InputError("exact-statistics counting needs an exact rational target")


def _statistic_targets(ctx: FreeGroupCtx, nbhd: Neighborhood) -> list[PatternDistribution]:
    """The target of each window statistic: the target itself for
    ``window``, its r pair projections {e, s_i} for ``edge_star``."""
    if nbhd.mode == "window":
        return [nbhd.target]
    return [nbhd.target.project(((), (i,))) for i in range(1, ctx.rank + 1)]


def _denominator_lcm(targets: Sequence[PatternDistribution]) -> int:
    # an exact target's masses share its least denominator, a float is the dyadic rational it is
    return math.lcm(*(t.total * m.as_integer_ratio()[1] for t in targets for m in t.masses.values()))


def _check_labelings(n: int, alphabet: Sequence, caps: Caps) -> None:
    """Raise unless |A|^n <= the labelings cap, building no power past its bit length."""
    q, cap = len(alphabet), caps.labelings
    if (q >= 2 and n >= cap.bit_length()) or q**n > cap:
        raise ResourceCapError(f"|A|^n labelings at |A|={q}, n={n} exceed cap {cap}")


def _orbit_weights(q: int, groups, banned: set) -> list[int]:
    """Per symbol index: its orbit's size if it is the orbit's least symbol,
    else 0.  Orbits are joined by the transpositions (a b) that keep every
    statistic's T, read digit by digit on each code, and the ``banned``
    (domain, symbol indices) patterns.  Products of them keep both too, so b
    joins an orbit if its swap with the orbit's least symbol keeps both."""
    # per statistic and column, per symbol: T summed over the codes with the
    # symbol there; a valid transposition swaps two equal signatures
    sums = []
    for window, target in groups:
        for j in range(len(window)):
            sums.append([0] * q)
            for c, t in target.items():
                sums[-1][c // q**j % q] += t
    sig = list(zip(*sums))

    def kept(perm):
        return all(
            target.get(sum(perm[c // q**j % q] * q**j for j in range(len(w))), 0) == t
            for w, target in groups for c, t in target.items()
        ) and {(dom, tuple(perm[x] for x in v)) for dom, v in banned} == banned

    orbits = []
    for b in range(q):
        for orbit in orbits:
            a = orbit[0]
            if sig[a] == sig[b] and kept([b if x == a else a if x == b else x for x in range(q)]):
                orbit.append(b)
                break
        else:
            orbits.append([b])
    sizes = {orbit[0]: len(orbit) for orbit in orbits}
    return [sizes.get(a, 0) for a in range(q)]


def _setup(ctx: FreeGroupCtx, n: int, alphabet: Sequence, nbhd: Neighborhood, caps: Caps):
    """The neighborhood in integers at (rank, n, alphabet), built once after
    the |A|^n cap, or None when no labeling can count (an empty alphabet, or
    exact statistics some n t misses).

    Every statistic's target is scaled by d, the lcm of its denominators (a
    float is read as the exact dyadic rational it is), so T = n d t is an
    integer.  Returns each statistic's window with its T per code of a key
    inside the alphabet, the T summed over the keys outside it (no labeling
    shows them, so they always count in full), d, the integer membership
    limit and the forbidden patterns whose symbols all lie in the alphabet, as
    ``banned`` (domain, symbol indices) pairs.  T is a dict of the codes the
    target lists: a wide window has too many codes to list them all.  Last
    come ``_orbit_weights`` under ``banned``.
    """
    _check_labelings(n, alphabet, caps)
    at = (ctx.rank, n, tuple(alphabet))
    if at in nbhd._setups:
        return nbhd._setups[at]
    targets = _statistic_targets(ctx, nbhd)
    d = _denominator_lcm(targets)
    eps = nbhd.epsilon
    setup = None
    if alphabet and not (eps == 0 and n % d):
        if nbhd.target.is_exact and isinstance(eps, (int, Fraction)):
            limit = math.floor(eps * n * d)
        else:
            # in integers: n d outgrows a float for a tiny float target.  An l1
            # distance is at most 2 per statistic; epsilon is clamped at 3 per statistic
            limit = math.floor(Fraction(float(min(eps, 3 * len(targets))) + PROB_TOL) * n * d)
        q = len(alphabet)
        index = {a: k for k, a in enumerate(alphabet)}
        groups, unseen = [], 0
        for t in targets:
            target = {}
            for key, m in t.masses.items():
                num, den = m.as_integer_ratio()
                scaled = num * (n * d // (den * t.total))
                if all(a in index for a in key):
                    target[sum(index[a] * q**j for j, a in enumerate(key))] = scaled
                else:
                    unseen += scaled
            groups.append((t.window, target))
        forbidden = () if nbhd.sft is None else nbhd.sft.forbidden
        banned = {(w.domain, tuple(index[x] for x in w.values)) for w in forbidden if all(x in index for x in w.values)}
        setup = groups, unseen, d, limit, banned, _orbit_weights(q, groups, banned)
    nbhd._setups[at] = setup
    return setup


def count_omega(
    ctx: FreeGroupCtx,
    action: FiniteAction,
    alphabet: Sequence,
    nbhd: Neighborhood,
    caps: Caps = Caps(),
) -> int:
    """Exact count of labelings in A^n whose empirical distribution lies in
    the neighborhood (and passes the attached constraint system, if any).

    Both modes are sums of window statistics: ``window`` is the one window of
    the target, ``edge_star`` the r windows {e, s_i} against the target's
    projections.  Vertex v's key in a window is the integer whose base-|A|
    digit j is the symbol index of vertex col_j(v).  A depth-first search
    with an explicit stack, not recursion, assigns the vertices in BFS order
    of the Schreier graph.  A key closes once the last of its columns is
    assigned, and moves the running distance D = sum |c d - T| (the l1
    distance times n d, an exact integer, over the closed keys) in O(1).
    One more key of statistic g changes D by at least
    delta_g = d - 2 min(d, max T over g's codes), so a prefix whose
    D + sum_g open_g delta_g passes the limit is cut with its whole subtree.
    A symbol that forms a forbidden nearest-neighbor pair with an assigned
    vertex, or with its own vertex at a fixed point, is never tried.  The
    constraint system still judges every labeling within the limit.  A swap
    of symbols in one orbit of ``_orbit_weights`` is a bijection of the
    counted labelings, so the first vertex takes only each orbit's least
    symbol, and each labeling found counts as the orbit's size.
    """
    n = action.n
    setup = _setup(ctx, n, alphabet, nbhd, caps)
    if setup is None:
        return 0
    groups, unseen, d, limit, banned, weight = setup
    spec = nbhd.sft
    q = len(alphabet)
    order = bfs_vertex_order(action)
    pos = [0] * n
    for p, v in enumerate(order):
        pos[v] = p
    # every key's code within its statistic is a bit field of one integer,
    # wide enough that no digit carries out of it; the symbol index a at
    # position p adds a * step[p] to that integer.  A lone symbol has index
    # 0 everywhere, so it builds no steps: together they hold about n^2 bits
    step = [0] * n
    # per position: the keys that close there, as (field shift, field mask,
    # gap table, the statistic's offset in one code space of all statistics)
    closing = [[] for _ in range(n)]
    # per position: the least change to D of the keys that close there
    drop = [0] * n
    dist = unseen  # D with no key closed
    shift = offset = 0  # where the next statistic's fields and codes start
    low = 0  # the least change to D still to come
    for window, target in groups:
        size = q ** len(window)
        width = (size - 1).bit_length() or 1
        dist += sum(target.values())
        # c d - T per code of the statistic, over its closed keys
        gap = defaultdict(int, {c: -t for c, t in target.items()})
        # the least change one more key makes
        delta = d - 2 * min(d, max(target.values(), default=0))
        low += n * delta
        # per column, per vertex v: the position of col_j(v); and v's field
        cols = [list(map(pos.__getitem__, col)) for col in window_columns(action, window)]
        fields = range(shift, shift + n * width, width)
        if q > 1:
            for j, col in enumerate(cols):
                digit = q**j
                for p, field in zip(col, fields):
                    step[p] += digit << field
        mask = (1 << width) - 1
        for field, p in zip(fields, map(max, zip(*cols))):
            closing[p].append((field, mask, gap, offset))
            drop[p] += delta
        shift += n * width
        offset += size
    # per position: the most D may be once it is assigned, with every key
    # still open at its least change
    room = [limit - low + x for x in itertools.accumulate(drop)]
    # per position with a forbidden pair: the symbols its fixed points ban,
    # and (earlier position, table) per neighbor, where table[a][b] bans
    # symbol a here beside symbol b there
    bans = [None] * n
    tables = {}
    for i in range(1, ctx.rank + 1):
        for a, b in [v for dom, v in banned if dom == ((), (i,))]:
            for v, w in enumerate(action.letter_perm(-i)):
                # x(v) = a beside x(sigma(s_i)^-1 v) = b, banned at the later position
                here, there, x, y = pos[v], pos[w], a, b
                if here < there:
                    here, there, x, y = there, here, y, x
                if bans[here] is None:
                    bans[here] = [False] * q, []
                if here == there:
                    bans[here][0][x] |= x == y
                    continue
                if (here, there) not in tables:
                    tables[here, there] = [[False] * q for _ in range(q)]
                    bans[here][1].append((there, tables[here, there]))
                tables[here, there][x][y] = True
    if not n:
        return int(spec is None or sft_check_all(spec, action, []))
    if not all(weight):  # the first position tries one symbol per orbit
        own = bans[0][0] if bans[0] else [False] * q
        bans[0] = [x or not w for x, w in zip(own, weight)], []
    sym = [0] * n  # the symbol index at each position, counted in the integer
    tried = [0] * n  # the next symbol index to try at each position
    saved = [0] * n  # D before each position's keys closed
    count, p, last, top, keys = 0, 0, n - 1, q - 1, 0
    while True:
        a = tried[p]
        if bans[p] is not None:
            own, beside = bans[p]
            while a < q:
                if not own[a]:
                    for there, table in beside:
                        if table[a][sym[there]]:
                            break
                    else:
                        break
                a += 1
        if a < q:
            keys += (a - sym[p]) * step[p]
            sym[p] = a
            tried[p] = a + 1
            if p < last:
                saved[p] = dist
                for shift, mask, gap, _ in closing[p]:
                    c = keys >> shift & mask
                    x = gap[c]
                    gap[c] = x + d
                    # |x + d| - |x|, for x = c d - T
                    dist += d if x >= 0 else (-d if x <= -d else d + x + x)
                if dist <= room[p]:
                    p += 1
                    tried[p] = 0
                    continue
                for shift, mask, gap, _ in closing[p]:
                    gap[keys >> shift & mask] -= d
                dist = saved[p]
            else:
                # a leaf: its keys are read, not placed; a code two of them
                # share counts the earlier ones
                total, seen = dist, []
                for shift, mask, gap, offset in closing[p]:
                    c = keys >> shift & mask
                    x = gap[c] + d * seen.count(offset + c)
                    seen.append(offset + c)
                    total += d if x >= 0 else (-d if x <= -d else d + x + x)
                if total <= limit and (spec is None or sft_check_all(spec, action, [alphabet[sym[t]] for t in pos])):
                    count += weight[sym[0]]
            if a < top:
                continue
        # every symbol at p is tried: back up past the positions with none left
        while True:
            keys -= sym[p] * step[p]
            sym[p] = 0
            if p == 0:
                return count
            p -= 1
            for shift, mask, gap, _ in closing[p]:
                gap[keys >> shift & mask] -= d
            dist = saved[p]
            if tried[p] < q:
                break


def _splits(total: int, room: Sequence[int], cost, budget: int, j: int = 0):
    """Every way to write ``total`` as parts p_j <= room[j] whose costs
    cost(j, p_j) sum to at most ``budget``, as (parts, cost) pairs."""
    if j == len(room) - 1:
        if total <= room[j] and (c := cost(j, total)) <= budget:
            yield (total,), c
        return
    for p in range(min(total, room[j]) + 1):
        if (c := cost(j, p)) <= budget:
            for rest, more in _splits(total - p, room, cost, budget - c, j + 1):
                yield (p, *rest), c + more


def _pair_law(k: tuple, fact: list[int], cells, d: int, banned: set, budget: int) -> dict:
    """Excess over the row mismatch floor -> how many permutations show a pair
    table M with row and column sums k, no mass on a banned cell and distance
    sum |M_ab d - cells[a][b]| (0 without cells) within budget: ∏ k_a!² / ∏ M_ab! per M."""
    law, top = defaultdict(int), math.prod(fact[x] for x in k) ** 2
    floor = 0 if cells is None else sum(abs(x * d - sum(row)) for x, row in zip(k, cells))

    def fill(a, room, spent, den):
        if a == len(k):
            law[spent] += top // den
            return
        free = [0 if (a, b) in banned else m for b, m in enumerate(room)]
        cost = (lambda b, m: 0) if cells is None else (lambda b, m: abs(m * d - cells[a][b]))
        for row, c in _splits(k[a], free, cost, budget - spent):
            fill(a + 1, [m - x for m, x in zip(room, row)], spent + c, den * math.prod(fact[x] for x in row))

    fill(0, list(k), -floor, 1)
    return law


def _count_by_type(ctx: FreeGroupCtx, n: int, alphabet: Sequence, nbhd: Neighborhood, caps: Caps) -> int | None:
    """The sum of ``count_omega`` over all n!^r actions, by labeling type k
    (k_a vertices on a); None for a radius >= 1 window or a non-NN system,
    which read more than k and the tables M_ab = #{v : x(v) = a,
    x(sigma(s_i)^-1 v) = b}.  An NN pair (a, b, i) bans cell ab of table i.
    Given x the generators are independent: each k adds multinomial(n; k)
    times a convolution of ``_pair_law``s.  Table i is at least its row
    mismatch sum_a |k_a d - sum_b T_ab| away: these floors prune the types,
    and the laws run over the excess above them."""
    spec = nbhd.sft
    if (spec is not None and spec.forbidden_pairs is None) or (nbhd.mode == "window" and nbhd.target.window != ((),)):
        return None
    setup = _setup(ctx, n, alphabet, nbhd, caps)
    if setup is None:
        return 0
    groups, unseen, d, limit, banned, _ = setup
    limit -= unseen  # the keys outside the alphabet always count in full
    q = len(alphabet)
    cells = {w[1][0]: [[t.get(a + q * b, 0) for b in range(q)] for a in range(q)] for w, t in groups if len(w) == 2}
    # T summed per vertex symbol: the radius-0 statistic, each table's row sums
    rows = {i: list(map(sum, t)) for i, t in cells.items()} if cells else {0: [groups[0][1].get(a, 0) for a in range(q)]}
    bans = [{v for dom, v in banned if dom == ((), (i,))} for i in range(ctx.rank + 1)]
    fact = list(itertools.accumulate(range(1, n + 1), operator.mul, initial=1))  # 0!, ..., n!
    acc = 0
    for k, low in _splits(n, [n] * q, lambda a, m: sum(abs(m * d - t[a]) for t in rows.values()), limit):
        slack, law = limit - low, {0: fact[n] // math.prod(fact[x] for x in k)}
        for i in range(1, ctx.rank + 1):
            # with nothing to read, all n! permutations sit at distance 0: no table is listed
            step = _pair_law(k, fact, cells.get(i), d, bans[i], slack) if i in cells or bans[i] else {0: fact[n]}
            out = defaultdict(int)
            for c, v in step.items():
                for e, w in law.items():
                    if e + c <= slack:
                        out[e + c] += w * v
            law = out
        acc += sum(law.values())
    return acc


def _check_mode(mode: str, samples: int) -> None:
    """Raise unless ``mode`` is exact, or monte_carlo with at least one sample."""
    if mode not in ("exact", "monte_carlo"):
        raise InputError(f"unknown mode {mode!r}")
    if mode == "monte_carlo" and samples < 1:
        raise InputError("monte carlo needs at least one sample")


@dataclass(frozen=True)
class EstimateRow:
    n: int
    samples: int
    mean_count: float
    log_mean_over_n: float
    stderr: float


def expected_count(
    ctx: FreeGroupCtx,
    n: int,
    alphabet: Sequence,
    nbhd: Neighborhood,
    mode: str = "exact",
    samples: int = 0,
    seed: int = 0,
    caps: Caps = Caps(),
) -> EstimateRow:
    """Mean neighborhood count over finite actions, as ``f_estimate``'s row at n.

    ``exact`` averages over all n!^r homomorphisms (stderr 0); ``monte_carlo``
    averages over ``samples`` uniform draws with per-index derived seeds and
    reports the standard error of the mean.
    """
    _check_mode(mode, samples)
    if mode == "exact":
        samples = hom_count(n, ctx.rank, caps.exact_actions)
        acc = _count_by_type(ctx, n, alphabet, nbhd, caps)
        if acc is None:
            acc = sum(count_omega(ctx, action, alphabet, nbhd, caps)
                      for action in enumerate_actions(n, ctx.rank, caps.exact_actions))
        try:
            mean = acc / samples
        except OverflowError:
            raise ResourceCapError(f"the exact mean count at n={n} exceeds float range") from None
        if acc and not mean:
            raise ResourceCapError(f"the exact mean count at n={n} is positive but below float range")
        stderr = 0.0
    else:
        _setup(ctx, n, alphabet, nbhd, caps)  # checks the |A|^n cap before any action is drawn
        counts = [
            count_omega(ctx, sample_action(n, ctx.rank, derive_seed(seed, idx)), alphabet, nbhd, caps)
            for idx in range(samples)
        ]
        mean = sum(counts) / samples
        var = sum((c - mean) ** 2 for c in counts) / (samples - 1) if samples > 1 else 0.0
        stderr = math.sqrt(var / samples)
    return EstimateRow(n, samples, mean, math.log(mean) / n if mean > 0 else float("-inf"), stderr)


@dataclass(frozen=True)
class EstimateResult:
    rows: tuple[EstimateRow, ...]
    warnings: tuple[str, ...] = ()


def f_estimate(
    ctx: FreeGroupCtx,
    target: PatternDistribution,
    alphabet: Sequence,
    epsilon,
    n_list: Sequence[int],
    mode: str = "monte_carlo",
    samples: int = 100,
    seed: int = 0,
    sft: SftSpec | None = None,
    distance_mode: str = "window",
    caps: Caps = Caps(),
) -> EstimateResult:
    """Per-n growth-rate table (1/n) log E[count] of the labelings over
    ``alphabet`` near ``target``.  A zero mean is reported as -inf, not an
    error.  The mode and sample count are checked before any row, so an
    empty ``n_list`` rejects them too.
    """
    _check_mode(mode, samples)
    if any(n < 1 for n in n_list):
        raise InputError(f"every n must be >= 1, got {list(n_list)}")
    if sft is not None and sft.alphabet is not None and not set(alphabet) <= set(sft.alphabet):
        raise InputError("the counted alphabet is not contained in the constraint system's alphabet")
    nbhd = Neighborhood(target=target, epsilon=epsilon, mode=distance_mode, sft=sft)
    warnings = []
    if epsilon == 0:
        # the statistics count_omega compares, so the warning matches its early 0
        lcm = _denominator_lcm(_statistic_targets(ctx, nbhd))
        for n in n_list:
            if n % lcm:
                warnings.append(
                    f"n={n} is not a multiple of the target denominator lcm {lcm}; "
                    "exact statistics are unattainable and counts will be 0"
                )
    rows = [
        expected_count(ctx, n, alphabet, nbhd, mode=mode, samples=samples, seed=derive_seed(seed, n), caps=caps)
        for n in n_list
    ]
    return EstimateResult(tuple(rows), tuple(warnings))
