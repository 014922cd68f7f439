"""Reduced-word arithmetic and tree geometry in a rank-r free group.

Words are tuples of nonzero ints: letter ``+i`` is the i-th generator
(1-based), ``-i`` its inverse.  The string form uses one lowercase letter
per generator and the matching uppercase letter for its inverse, so
``"aB"`` is s1 * s2^-1 and ``""`` is the identity.

All enumeration follows shortlex order: first by word length, then
letterwise with a < A < b < B < ...
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import InputError, ResourceCapError

Word = tuple  # reduced word as a tuple of signed letter indices

IDENTITY: Word = ()

# the most letters a ball's words may hold together, bounded by words times
# radius; it also refuses every ball of more than a million words, so its
# tables stay within a few hundred MB
MAX_BALL_LETTERS = 5 * 10**6


def reduce_word(letters: Iterable[int]) -> Word:
    """Freely reduce a letter sequence; idempotent."""
    out: list[int] = []
    for letter in letters:
        if letter == 0:
            raise InputError("letter index 0 is not a generator")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def mul(g: Word, h: Word) -> Word:
    """Product of two reduced words (cancels across the seam)."""
    i = len(g)
    j = 0
    while i > 0 and j < len(h) and g[i - 1] == -h[j]:
        i -= 1
        j += 1
    return g[:i] + h[j:]


def inv(g: Word) -> Word:
    return tuple(-letter for letter in reversed(g))


def word_sort_key(w: Word) -> tuple:
    # a < A < b < B < ...
    return (len(w), tuple((abs(letter), letter < 0) for letter in w))


@lru_cache(maxsize=None)
def _ball_tables(rank: int, radius: int) -> tuple[tuple, tuple[Word, ...], dict[Word, int]]:
    """The shortlex ball as (tree, words, index), built once per (rank, radius).

    Tree entries are (word, parent index, letter), the root (identity, -1, 0).
    Each non-root word extends its parent by one letter on the right, so
    parents always precede children.  The index maps word -> position.
    """
    if radius < 0:
        raise InputError("radius must be >= 0")
    # decided in closed form before anything is built; past the cap's bit
    # length a rank >= 2 ball is too large, so no power is built
    ctx = FreeGroupCtx(rank)
    if (rank > 1 and radius >= MAX_BALL_LETTERS.bit_length()) or ctx.ball_size(radius) * radius > MAX_BALL_LETTERS:
        raise ResourceCapError(f"ball of radius {radius} may exceed five million letters")
    letters = [sign * i for i in range(1, rank + 1) for sign in (1, -1)]
    entries: list[tuple[Word, int, int]] = [(IDENTITY, -1, 0)]
    frontier = [(IDENTITY, 0)]
    for _ in range(radius):
        nxt: list[tuple[Word, int]] = []
        for word, idx in frontier:
            last = word[-1] if word else 0
            for letter in letters:
                if letter == -last:
                    continue
                child = word + (letter,)
                entries.append((child, idx, letter))
                nxt.append((child, len(entries) - 1))
        frontier = nxt
    words = tuple(entry[0] for entry in entries)
    return tuple(entries), words, {w: k for k, w in enumerate(words)}


@dataclass(frozen=True)
class FreeGroupCtx:
    """One free group: its rank, with generators named a, b, c, ..."""

    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise InputError(f"rank must be >= 1, got {self.rank}")
        if self.rank > len(string.ascii_lowercase):
            raise InputError(f"rank {self.rank} has more generators than letters to name them")

    @property
    def letters(self) -> tuple[int, ...]:
        """All 2r signed letters in shortlex letter order: +1, -1, +2, -2, ..."""
        return tuple(sign * i for i in range(1, self.rank + 1) for sign in (1, -1))

    def letter_name(self, letter: int) -> str:
        name = string.ascii_lowercase[abs(letter) - 1]
        return name if letter > 0 else name.upper()

    def parse(self, s: str) -> Word:
        if not isinstance(s, str):
            raise InputError(f"a word is a string of generator letters, got {s!r}")
        letters = []
        for ch in s:
            idx = string.ascii_lowercase.find(ch.lower()) + 1
            if not 1 <= idx <= self.rank:
                raise InputError(f"unknown generator letter {ch!r}")
            letters.append(idx if ch.islower() else -idx)
        return reduce_word(letters)

    def format(self, w: Word) -> str:
        return "".join(self.letter_name(letter) for letter in w)

    def ball(self, radius: int) -> tuple[Word, ...]:
        """All reduced words of length <= radius, in shortlex order."""
        return _ball_tables(self.rank, radius)[1]

    def ball_index(self, radius: int) -> dict[Word, int]:
        """Word -> position in ``ball(radius)``.  The dict is shared between
        callers and must not be modified."""
        return _ball_tables(self.rank, radius)[2]

    def ball_tree(self, radius: int) -> tuple[tuple[Word, int, int], ...]:
        return _ball_tables(self.rank, radius)[0]

    def ball_size(self, radius: int) -> int:
        """Closed-form count of the shortlex ball."""
        if self.rank == 1:
            return 2 * radius + 1
        q = 2 * self.rank - 1
        return 1 + 2 * self.rank * (q**radius - 1) // (q - 1)


def sort_words(words: Sequence[Word]) -> tuple[Word, ...]:
    return tuple(sorted(words, key=word_sort_key))
