"""Finite-window orbit-change maps, their edge-label decoding and companion
encoding, and the periodic-orbit rearrangement.

A LocalBijection is the restriction to a ball of an identity-fixing
bijection of the group whose one-step displacements |phi(g)^-1 phi(gs)| are
bounded by rho.  Every operation below shrinks the window by a stated
amount and raises a WindowError rather than guessing beyond it; the
underlying objects are infinite and truncation has to stay explicit.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .actions import FiniteAction
from .errors import (
    ConstructionError,
    InputError,
    PreconditionError,
    VerificationError,
    WindowError,
)
from .freegroup import IDENTITY, FreeGroupCtx, Word, inv, mul
from .shift import Pattern, pullback_classes, pullback_name, window_columns
from .sft import AxiomsReport, axioms_check, symbol_entry, telescope


class LocalBijection:
    """A table phi: ball(window) -> G with phi(e) = e, injective, with
    displacement bound rho in both directions where evaluable.  ``inverse``
    maps each image to the first word in the table that has it."""

    __slots__ = ("window", "rho", "table", "inverse")

    def __init__(self, window: int, rho: int, table: Mapping[Word, Word]):
        self.window = window
        self.rho = rho
        self.table = dict(table)
        self.inverse = {v: k for k, v in reversed(self.table.items())}

    def __call__(self, g: Word) -> Word:
        try:
            return self.table[g]
        except KeyError:
            raise WindowError(f"word {g} outside the radius-{self.window} window") from None


# ---------------------------------------------------------------------------
# decoding and encodings
# ---------------------------------------------------------------------------


def decode_E(ctx: FreeGroupCtx, pattern: Pattern) -> LocalBijection:
    """Rebuild the map from its encoding: phi(e) = e and phi(gs) = phi(g) x_g(s).

    The window grows by one over the pattern radius.  A non-injective result
    certifies that the input violates the constraint system.
    """
    radius = max((len(g) for g in pattern.domain), default=0)
    if pattern.domain != ctx.ball(radius):
        raise InputError("decoding needs a pattern on a full ball")
    images = telescope(ctx, pattern, IDENTITY, radius + 1)
    table = dict(zip(ctx.ball(radius + 1), images))
    rho = max(
        (len(symbol_entry(sym, letter)) for sym in set(pattern.values) for letter in ctx.letters),
        default=1,
    )
    phi = LocalBijection(radius + 1, max(rho, 1), table)
    if len(phi.inverse) < len(phi.table):
        g = next(g for g, val in phi.table.items() if phi.inverse[val] != g)
        raise VerificationError(
            "decoded map is not injective on its window: "
            f"{ctx.format(phi.inverse[phi(g)])} and {ctx.format(g)} both map to {ctx.format(phi(g))}"
        )
    return phi


def encode_F(ctx: FreeGroupCtx, phi: LocalBijection) -> Pattern:
    """Companion encoding along the second action: the symbol at h sends s to
    h^-1 phi(phi^-1(h) s).  The window shrinks by the displacement factor."""
    radius = (phi.window - 1) // phi.rho
    if radius < 0:
        raise WindowError("window too small to encode")
    values = []
    for h in ctx.ball(radius):
        # phi^-1 moves h by at most rho |h| < window, so it is in the table
        gh = phi.inverse[h]
        h_inv = inv(h)
        sym = tuple(mul(h_inv, phi(mul(gh, (letter,)))) for letter in ctx.letters)
        values.append(sym)
    return Pattern._on_ball(ctx, radius, values)


# ---------------------------------------------------------------------------
# reconstruction from patterns and the rearranged action
# ---------------------------------------------------------------------------


def pattern_inverse_eval(ctx: FreeGroupCtx, rho: int, pattern: Pattern, target: Word) -> Word:
    """Evaluate the inverse map directly from an encoding pattern.

    Builds psi(target) letter by letter: each letter t extends the current
    position by the unique reduced word of length <= rho whose telescoped
    product from that position equals t.
    """
    cur = IDENTITY
    for t in target:
        products = telescope(ctx, pattern, cur, rho)
        witnesses = [u for u, prod in zip(ctx.ball(rho), products) if prod == (t,)]
        if len(witnesses) != 1:
            raise PreconditionError(
                f"expected a unique length-<={rho} witness for {ctx.letter_name(t)} "
                f"at {ctx.format(cur)}, found {len(witnesses)}"
            )
        cur = mul(cur, witnesses[0])
    return cur


class Pullbacks(NamedTuple):
    """The radius rho^2+1 pullback patterns of a configuration, read as a
    block code: each distinct pattern once, in order of first appearance,
    with its axiom report, and per vertex the index of its pattern."""

    patterns: tuple[Pattern, ...]
    reports: tuple[AxiomsReport, ...]
    of_vertex: tuple[int, ...]


def zrho_pullbacks(ctx: FreeGroupCtx, rho: int, action: FiniteAction, labels) -> Pullbacks:
    """Check every vertex's pullback against the admissibility axioms,
    naming and checking one vertex per class of equal pullbacks."""
    radius = rho * rho + 1
    of_vertex, firsts, _ = pullback_classes(ctx, action, labels, radius)
    patterns = tuple(pullback_name(ctx, action, labels, v, radius) for v in firsts)
    reports = tuple(axioms_check(ctx, rho, pat) for pat in patterns)
    return Pullbacks(patterns, reports, tuple(of_vertex))


def verify_zrho(ctx: FreeGroupCtx, rho: int, action: FiniteAction, labels) -> Pullbacks:
    """Check every pullback against the admissibility axioms; returns the
    checked pullbacks, which ``tau_construct`` takes.  Raises naming the
    first failing vertex."""
    pullbacks = zrho_pullbacks(ctx, rho, action, labels)
    for v, k in enumerate(pullbacks.of_vertex):
        report = pullbacks.reports[k]
        if not report.ok:
            raise PreconditionError(f"vertex {v}: {report.reason}", vertex=v)
    return pullbacks


def _stepped_action(base: FiniteAction, steps, failure: str) -> FiniteAction:
    """The action whose generator i sends v to base(w)^-1 v, w = steps[i - 1][v],
    read from one column per distinct step word; raises ``failure``
    formatted with i when one of these images is not a bijection."""
    words = list(set().union(*steps))
    column = dict(zip(words, window_columns(base, words)))
    perms = []
    for i, step in enumerate(steps, 1):
        images = tuple(column[w][v] for v, w in enumerate(step))
        if sorted(images) != list(range(base.n)):
            raise VerificationError(failure.format(i))
        perms.append(images)
    return FiniteAction(base.n, tuple(perms))


def tau_construct(ctx: FreeGroupCtx, action: FiniteAction, pullbacks: Pullbacks) -> FiniteAction:
    """The rearranged action: tau(g) v = sigma(phi_v^-1(g^-1)^-1) v.

    On a generator, phi_v^-1(s_i^-1) is the telescope witness of s_i^-1 that
    the axiom check of v's pullback pattern found, so it is read from that
    pattern's report.  ``pullbacks`` is what ``verify_zrho`` returned for this
    action; admissibility is checked there and not again here.  Given
    admissible patterns, the returned generator images are bijections and the
    defining formula is multiplicative in g.
    """
    steps = [[pullbacks.reports[k].witnesses[(-i,)] for k in pullbacks.of_vertex] for i in range(1, ctx.rank + 1)]
    return _stepped_action(action, steps, "rearranged generator {} is not a bijection; admissibility was vacuous")


def reconstruct_sigma(ctx: FreeGroupCtx, tau: FiniteAction, labels) -> FiniteAction:
    """Invert the rearrangement from (tau, x): sigma(h) v = tau(x(v)(h^-1)^-1) v
    for each signed generator h."""
    steps = [[symbol_entry(sym, -i) for sym in labels] for i in range(1, ctx.rank + 1)]
    return _stepped_action(tau, steps, "reconstructed generator {} is not a bijection")


# ---------------------------------------------------------------------------
# automorphism test vectors
# ---------------------------------------------------------------------------


class Automorphism:
    """A free-group automorphism given by generator images; produces window
    constant admissible configurations for any finite action.
    ``inverse_images`` holds the images of the inverse automorphism, and
    ``displacement`` is the longest image of either."""

    def __init__(self, ctx: FreeGroupCtx, images: Mapping[int, Word]):
        self.ctx = ctx
        full = {}
        for i in range(1, ctx.rank + 1):
            try:
                img = images[i]
            except KeyError:
                raise InputError(f"missing image for generator {i}") from None
            full[i] = img
            full[-i] = inv(img)
        self.images = full
        # a preimage of every generator makes the map onto, and a free group
        # of finite rank is Hopfian: a surjective endomorphism is injective
        # too, so no separate injectivity check is needed
        radius = 2 * max(map(len, full.values())) + 2
        found: dict[int, Word] = {}
        for w in ctx.ball(radius):
            img = self.apply(w)
            if len(img) == 1 and img[0] > 0:
                found[img[0]] = w
                if len(found) == ctx.rank:
                    break
        else:
            i = min(set(range(1, ctx.rank + 1)).difference(found))
            raise ConstructionError(
                "images do not define an automorphism: generator "
                f"{ctx.letter_name(i)} has no preimage within radius {radius}"
            )
        self.inverse_images = found | {-i: inv(w) for i, w in found.items()}
        self.displacement = max(map(len, [*full.values(), *self.inverse_images.values()]))

    @classmethod
    def from_names(cls, ctx: FreeGroupCtx, images: Mapping[str, str]) -> "Automorphism":
        by_index = {}
        for name, word in images.items():
            g = ctx.parse(name)
            if len(g) != 1 or g[0] < 0 or g[0] in by_index:
                raise InputError(f"image keys must be distinct single generators, got {name!r}")
            by_index[g[0]] = ctx.parse(word)
        return cls(ctx, by_index)

    def apply(self, w: Word) -> Word:
        out: Word = IDENTITY
        for letter in w:
            out = mul(out, self.images[letter])
        return out

    def constant_config(self, n: int) -> tuple:
        """n copies of one orbit-alphabet symbol: each signed letter maps to
        its image under the inverse automorphism, matching an orbit-change
        map constantly equal to the inverse."""
        return (tuple(self.inverse_images[letter] for letter in self.ctx.letters),) * n
