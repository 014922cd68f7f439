"""Write ``mixed_rho1.json``: a rho = 1 ``rearrange``/``sft-verify`` config
whose configuration has many distinct pullback patterns.

The action is the disjoint union of 50 random two-block actions on 2 + 2
vertices (n = 200).  Each component gets its own labels, found by the z_1
sampler on that component alone; a component whose search runs out of budget
is drawn again.  Pullback patterns never leave a component, so the union is
admissible.

    PYTHONPATH=src python tests/data/make_mixed_rho1.py
"""

import json
import os
import random

from finvariant import FiniteAction, FreeGroupCtx, sample_sft_config

RANK = 2
COMPONENTS = 50


def block_action(rng: random.Random, sizes) -> list[list[int]]:
    perms = [[] for _ in range(RANK)]
    offset = 0
    for size in sizes:
        for perm in perms:
            block = list(range(size))
            rng.shuffle(block)
            perm.extend(v + offset for v in block)
        offset += size
    return perms


def main() -> None:
    ctx = FreeGroupCtx(RANK)
    rng = random.Random(20261018)
    perms = [[] for _ in range(RANK)]
    labels = []
    while len(labels) < 4 * COMPONENTS:
        block = block_action(rng, (2, 2))
        found = sample_sft_config(
            ctx, 1, FiniteAction(4, tuple(map(tuple, block))), rng.randrange(10**9),
            budget=60000, restarts=2,
        )
        if found is None:
            continue
        offset = len(labels)
        for perm, part in zip(perms, block):
            perm.extend(v + offset for v in part)
        labels += [
            {ctx.letter_name(letter): ctx.format(word) for letter, word in zip(ctx.letters, sym)}
            for sym in found
        ]
    config = {
        "rank": RANK,
        "rho": 1,
        "sigma": {"n": len(labels), "rank": RANK, "perms": perms},
        "x": labels,
        "y_alphabet": ["p", "q"],
        "seed": 7,
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "mixed_rho1.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
