"""Finite actions of a free group: r permutations of [n], sampling and
exhaustive enumeration of all homomorphisms into Sym(n)."""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator

from .errors import InputError, ResourceCapError, as_int


def derive_seed(seed: int, *indices: int) -> int:
    """A stable seed for one draw, hashed from (seed, *indices), so a draw
    depends on its own indices and not on the draws made before it."""
    tag = ":".join(str(x) for x in (seed, *indices)).encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:8], "big")


@dataclass(frozen=True)
class FiniteAction:
    """A homomorphism into Sym(n), stored as one permutation per generator.

    ``perms[i-1][v]`` is the image of vertex v under generator s_i.  Being a
    free group there are no relations to check; any r-tuple of permutations
    is a valid action.
    """

    n: int
    perms: tuple[tuple[int, ...], ...]
    _inv: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for p in self.perms:
            if len(p) != self.n or sorted(p) != list(range(self.n)):
                raise InputError("each generator image must be a permutation of [n]")
        invs = []
        for p in self.perms:
            q = [0] * self.n
            for v, w in enumerate(p):
                q[w] = v
            invs.append(tuple(q))
        object.__setattr__(self, "_inv", tuple(invs))

    @property
    def rank(self) -> int:
        return len(self.perms)

    def letter_perm(self, letter: int) -> tuple[int, ...]:
        """Permutation of the signed letter: sigma(s_i) or its inverse."""
        return self.perms[letter - 1] if letter > 0 else self._inv[-letter - 1]

    @classmethod
    def from_json(cls, data: dict) -> "FiniteAction":
        try:
            n = as_int(data["n"], "the action's n")
            perms = tuple(tuple(as_int(v, "a perms entry") for v in p) for p in data["perms"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed action json: {exc}") from exc
        return cls(n, perms)


def sample_action(n: int, rank: int, seed: int) -> FiniteAction:
    """Uniform draw from Hom(G, Sym(n)): one Fisher-Yates shuffle per generator."""
    rng = random.Random(seed)
    perms = []
    for _ in range(rank):
        arr = list(range(n))
        rng.shuffle(arr)
        perms.append(tuple(arr))
    return FiniteAction(n, tuple(perms))


def hom_count(n: int, rank: int, cap: int) -> int:
    """n!^r, the size of Hom(G, Sym(n)), if at most ``cap``: a running
    product stops once it passes the cap, so no larger number is built."""
    total, m = 1, 1
    while total <= cap and m < n:
        m += 1
        total *= m**rank
    if total > cap:
        raise ResourceCapError(f"n!^r homomorphisms at n={n}, r={rank} exceed cap {cap}")
    return total


def enumerate_actions(n: int, rank: int, cap: int = 10**6) -> Iterator[FiniteAction]:
    """All of Hom(G, Sym(n)) in a fixed lexicographic order."""
    hom_count(n, rank, cap)
    perms = list(itertools.permutations(range(n)))
    for combo in itertools.product(perms, repeat=rank):
        yield FiniteAction(n, combo)
