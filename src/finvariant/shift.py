"""Patterns on finite windows of the group, pullback names of finite
actions, and distributions of patterns on a window.

A window is a shortlex-sorted tuple of words.  Distributions key their
entries by the tuple of symbols aligned to the window; ``Pattern`` objects
carry a domain with its values for the single-pattern operations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Mapping, Sequence

from .actions import FiniteAction
from .errors import InputError, as_int
from .freegroup import FreeGroupCtx, Word, sort_words, word_sort_key

# slack on a float probability: a distribution's total and its entries'
# range, and a weight's balance; rational ones are compared exactly
PROB_TOL = 1e-12


def read_ratio(raw) -> tuple[int, int] | float:
    """A probability from JSON: ``{"num": int, "den": int}`` with a nonzero
    ``den`` is that exact rational as the pair (num, den), any other JSON
    number a float."""
    # type(), not isinstance: a boolean is an int to Python, not to JSON
    if isinstance(raw, dict):
        num, den = raw.get("num"), raw.get("den")
        if type(num) is int and type(den) is int and den:
            return num, den
    elif type(raw) is float or (type(raw) is int and raw.bit_length() <= 1023):
        return float(raw)
    raise InputError(f"a probability is a JSON number in float range or integers {{num, den != 0}}, got {raw!r}")


def write_prob(mass, total: int = 1) -> dict | float:
    """The JSON form ``read_ratio`` reads back of mass / total: a rational as
    {num, den} in lowest terms, with no Fraction built."""
    if not isinstance(mass, (int, Fraction)):
        return float(mass)
    num, den = mass.as_integer_ratio()
    common = math.gcd(num, den * total)
    return {"num": num // common, "den": den * total // common}


def items_at(keys: Sequence) -> Callable:
    """The function from a sequence or mapping to the tuple of its items at ``keys``."""
    return itemgetter(*keys) if len(keys) > 1 else lambda seq: tuple(seq[k] for k in keys)


def over_lcm(ratios: Mapping[tuple, tuple[int, int]]) -> tuple[dict, int]:
    """(num, den) pairs as integer masses over the lcm of the dens, and that lcm."""
    dens = {den for _, den in ratios.values()}
    total = math.lcm(*dens)
    scale = {den: total // den for den in dens}
    return {k: num * scale[den] for k, (num, den) in ratios.items()}, total


class Pattern:
    """A total assignment window -> symbols, domain canonically shortlex-sorted."""

    __slots__ = ("domain", "values", "_index")

    def __init__(self, domain: Sequence[Word], values: Sequence):
        if len(domain) != len(values):
            raise InputError("pattern needs one value per domain word")
        order = sorted(range(len(domain)), key=lambda k: word_sort_key(domain[k]))
        dom = tuple(domain[k] for k in order)
        if len(set(dom)) != len(dom):
            raise InputError("pattern domain has repeated words")
        object.__setattr__(self, "domain", dom)
        object.__setattr__(self, "values", tuple(values[k] for k in order))
        object.__setattr__(self, "_index", {w: k for k, w in enumerate(dom)})

    @classmethod
    def _on_ball(cls, ctx: FreeGroupCtx, m: int, values: Sequence) -> "Pattern":
        """A pattern on ``ctx.ball(m)``, which is shortlex-sorted and
        repeat-free by construction, so the sort and the check are skipped,
        and whose word index is the ball's own, shared by every pattern on
        that ball."""
        self = object.__new__(cls)
        object.__setattr__(self, "domain", ctx.ball(m))
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "_index", ctx.ball_index(m))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Pattern is immutable")

    def __contains__(self, w: Word) -> bool:
        return w in self._index

    def __getitem__(self, w: Word):
        try:
            return self.values[self._index[w]]
        except KeyError:
            raise InputError(f"word {w} outside pattern domain") from None

    def __eq__(self, other):
        return (
            isinstance(other, Pattern)
            and self.domain == other.domain
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.domain, self.values))

    def __repr__(self):
        return f"Pattern({dict(zip(self.domain, self.values))!r})"


class PatternDistribution:
    """Probabilities of patterns on a fixed window.

    ``masses`` maps symbol tuples (aligned to the window order) to masses
    that add up to ``total``: exactly, as integers over the least common
    denominator of the probabilities, when every mass is rational
    (``is_exact``); else within ``PROB_TOL``, as given over a total of 1,
    with no entry below 0 or above 1 by more than that slack.

    ``PatternDistribution(...)`` is the one public, validating constructor;
    ``_exact`` builds one whose window and keys are known good (read, projected).
    """

    __slots__ = ("window", "masses", "total", "is_exact", "_probs")

    def __init__(self, window: Sequence[Word], masses: Mapping[tuple, object], total: int = 1):
        win = sort_words(window)
        if win != tuple(window):
            raise InputError("window must be shortlex-sorted")
        for key in masses:
            if len(key) != len(win):
                raise InputError("distribution key does not match window size")
        self.is_exact = all(isinstance(m, (int, Fraction)) for m in masses.values())
        # integers over one denominator
        if self.is_exact and any(type(m) is not int for m in masses.values()):
            masses, scale = over_lcm({k: m.as_integer_ratio() for k, m in masses.items()})
            total *= scale
        self._settle(win, dict(masses), total)

    @classmethod
    def _exact(cls, window: tuple, masses: dict, total: int) -> "PatternDistribution":
        """The exact distribution of integer ``masses`` over ``total`` on a sorted window its keys fit."""
        self = object.__new__(cls)
        self.is_exact = True
        self._settle(window, masses, total)
        return self

    def _settle(self, window: tuple, masses: dict, total) -> None:
        """Checks the masses and keeps them, exact ones over their least common denominator."""
        if self.is_exact:
            common = math.gcd(total, *masses.values())
            if common > 1:
                masses = {k: m // common for k, m in masses.items()}
                total //= common
        slack = 0 if self.is_exact else PROB_TOL
        mass = sum(masses.values())
        # a NaN entry makes the sum NaN, which fails this test
        if not abs(mass - total) <= slack:
            raise InputError(f"probabilities sum to {Fraction(mass, total) if self.is_exact else mass}, not 1")
        if any(m < -slack for m in masses.values()):
            raise InputError("negative probability")
        # exact masses summing to the total with none negative lie within it
        if not self.is_exact and any(m > 1 + slack for m in masses.values()):
            raise InputError("a probability above 1")
        self.window, self.masses, self.total, self._probs = window, masses, total, None

    @property
    def probs(self) -> dict:
        """Pattern -> probability, a Fraction when exact, else as given;
        built on first use."""
        if self._probs is None:
            total = self.total
            self._probs = {k: Fraction(m, total) for k, m in self.masses.items()} if self.is_exact else self.masses
        return self._probs

    def project(self, subwindow: Sequence[Word]) -> "PatternDistribution":
        sub = sort_words(subwindow)
        index = {w: k for k, w in enumerate(self.window)}
        try:
            cols = [index[w] for w in sub]
        except KeyError as exc:
            raise InputError(f"projection window not contained: {exc}") from None
        small_of = items_at(cols)
        out: dict[tuple, object] = {}
        for key, m in self.masses.items():
            small = small_of(key)
            out[small] = out.get(small, 0) + m
        if self.is_exact:
            return PatternDistribution._exact(sub, out, self.total)
        return PatternDistribution(sub, out, self.total)

    def to_json(self, ctx: FreeGroupCtx) -> dict:
        radius = max((len(w) for w in self.window), default=0)
        if self.window != ctx.ball(radius):
            raise InputError("json serialization requires a ball window")
        words = [ctx.format(w) for w in self.window]
        masses, total = self.masses, self.total
        keys = sorted(masses, key=repr)
        entries = [{"pattern": dict(zip(words, k)), "p": write_prob(masses[k], total)} for k in keys]
        return {"window_radius": radius, "entries": entries}

    @classmethod
    def from_json(cls, ctx: FreeGroupCtx, data: dict) -> "PatternDistribution":
        try:
            radius = as_int(data["window_radius"], "window_radius")
            entries = data["entries"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed distribution json: {exc}") from exc
        if not isinstance(entries, list):
            raise InputError(f"malformed distribution json: entries must be a list, got {entries!r}")
        window = ctx.ball(radius)
        # an entry's key, its symbols in window order, per spelling of its words
        layouts: dict[tuple, Callable] = {}
        key_of = None
        probs: dict[tuple, object] = {}
        for count, entry in enumerate(entries, 1):
            try:
                pattern, prob = entry["pattern"], read_ratio(entry["p"])
            except (KeyError, TypeError, InputError) as exc:
                raise InputError(f"malformed distribution entry {entry!r}: {exc!r}") from None
            # a pattern of the window's size that holds every spelling of the
            # last layout holds exactly those, so that layout reads its key
            try:
                if len(pattern) != len(window):
                    raise KeyError
                key = key_of(pattern)
            except (KeyError, TypeError):
                try:
                    spellings = tuple(pattern.keys())
                except AttributeError as exc:
                    raise InputError(f"malformed distribution entry {entry!r}: {exc!r}") from None
                key_of = layouts.get(spellings)
                if key_of is None:
                    at = {ctx.parse(k): k for k in spellings}
                    if len(at) != len(spellings) or set(at) != set(window):
                        raise InputError("distribution entry does not cover the window")
                    key_of = layouts[spellings] = items_at([at[w] for w in window])
                key = key_of(pattern)
            try:
                probs[key] = prob
            except TypeError:
                raise InputError(f"malformed distribution entry {entry!r}: a symbol must be a json scalar") from None
            if len(probs) < count:
                raise InputError(f"pattern {pattern!r} appears twice in the distribution")
        if all(type(p) is tuple for p in probs.values()):
            return cls._exact(window, *over_lcm(probs))
        return cls(window, {k: p if type(p) is float else Fraction(*p) for k, p in probs.items()})


def window_columns(action: FiniteAction, window: Sequence[Word]) -> list[tuple[int, ...]]:
    """Per-window-word vertex lookup tables: entry g gives sigma(g)^-1 v; the
    one routine that composes sigma along words.  As sigma(g s)^-1 =
    sigma(s)^-1 sigma(g)^-1, a word's column maps its prefix's through
    sigma(s)^-1, and each prefix, in the window or not, is built once."""
    cols = {(s,): action.letter_perm(-s) for i in range(1, action.rank + 1) for s in (i, -i)}
    out = []
    for g in window:
        k = len(g)
        while k > 1 and g[:k] not in cols:
            k -= 1
        col = cols[g[:k]] if g else tuple(range(action.n))
        for j in range(k, len(g)):
            col = cols[g[: j + 1]] = tuple(map(action.letter_perm(-g[j]).__getitem__, col))
        out.append(col)
    return out


def pullback_name(ctx: FreeGroupCtx, action: FiniteAction, labels: Sequence, v: int, m: int) -> Pattern:
    """The pullback name at vertex v on the radius-m ball: g -> x(sigma(g)^-1 v).

    Walks the ball tree, extending by one letter at a time, so each cell
    costs a single permutation lookup.
    """
    tree = ctx.ball_tree(m)
    verts = [0] * len(tree)
    verts[0] = v
    values = [None] * len(tree)
    values[0] = labels[v]
    for k in range(1, len(tree)):
        _, parent, letter = tree[k]
        # sigma((g s)^-1) v = sigma(s)^-1 sigma(g^-1) v
        u = action.letter_perm(-letter)[verts[parent]]
        verts[k] = u
        values[k] = labels[u]
    return Pattern._on_ball(ctx, m, values)


def pullback_classes(
    ctx: FreeGroupCtx, action: FiniteAction, labels: Sequence, m: int
) -> tuple[list[int], list[int], int]:
    """The partition of the vertices by their radius-m pullback names, found
    by colour refinement without naming a vertex: per vertex its class, the
    classes numbered in order of first appearance; per class its first
    vertex; and the number of rounds that split a class.

    Colour 0 of v is x(v); colour t+1 is colour t at v and at sigma(s)^-1 v
    for each signed letter s.  As the name at v satisfies
    P_{t+1}(v)(s h) = P_t(sigma(s)^-1 v)(h), two vertices share colour t
    exactly when their radius-t names agree.  A round only splits classes,
    so once a round leaves the class count alone the partition is stable:
    the refinement stops at that round, or after m rounds.
    """
    ids: dict = {}
    colour = [ids.setdefault(x, len(ids)) for x in labels]
    inverses = [action.letter_perm(-letter) for letter in ctx.letters]
    rounds = 0
    while rounds < m:
        count, ids = len(ids), {}
        moved = [[colour[u] for u in perm] for perm in inverses]
        refined = [ids.setdefault(key, len(ids)) for key in zip(colour, *moved)]
        if len(ids) == count:
            break
        colour = refined
        rounds += 1
    firsts: list[int] = []
    for v, k in enumerate(colour):
        if k == len(firsts):
            firsts.append(v)
    return colour, firsts, rounds
