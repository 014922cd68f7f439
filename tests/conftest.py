"""Shared fixtures: contexts, canonical automorphisms, and the pool of
accepted (action, configuration) instances used by the rearrangement suites."""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import pytest

from finvariant import (
    Automorphism,
    FiniteAction,
    FreeGroupCtx,
    sample_action,
    sample_sft_config,
)


@pytest.fixture(autouse=True)
def no_child_left():
    """No test leaves a child process behind: a child that the test started
    and did not reap fails it."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def ctx2() -> FreeGroupCtx:
    return FreeGroupCtx(2)


@pytest.fixture(scope="session")
def ctx1() -> FreeGroupCtx:
    return FreeGroupCtx(1)


def canonical_automorphisms(ctx: FreeGroupCtx) -> dict[str, Automorphism]:
    return {
        "identity": Automorphism.from_names(ctx, {"a": "a", "b": "b"}),
        "swap": Automorphism.from_names(ctx, {"a": "b", "b": "a"}),
        "inversion": Automorphism.from_names(ctx, {"a": "A", "b": "b"}),
        "nielsen": Automorphism.from_names(ctx, {"a": "ab", "b": "b"}),
    }


@pytest.fixture(scope="session")
def autos(ctx2) -> dict[str, Automorphism]:
    return canonical_automorphisms(ctx2)


@dataclass
class Instance:
    """One accepted (sigma, x, y) triple with the displacement it verifies at."""

    name: str
    rho: int
    action: FiniteAction
    labels: tuple
    ylabels: tuple
    source: str = "automorphism"


def _block_action(a: FiniteAction, b: FiniteAction) -> FiniteAction:
    n = a.n + b.n
    perms = []
    for i in range(a.rank):
        perm = tuple(a.perms[i]) + tuple(v + a.n for v in b.perms[i])
        perms.append(perm)
    return FiniteAction(n, tuple(perms))


def build_instances(ctx: FreeGroupCtx, min_count: int = 50) -> list[Instance]:
    autos = canonical_automorphisms(ctx)
    rng = random.Random(20240901)
    instances: list[Instance] = []

    def ylabels_for(n: int) -> tuple:
        return tuple(rng.choice(("p", "q")) for _ in range(n))

    seed = 0
    while len(instances) < min_count:
        for name, auto in autos.items():
            n = 6 + seed % 7
            action = sample_action(n, ctx.rank, seed=1000 + seed)
            instances.append(
                Instance(
                    name=f"{name}-s{seed}",
                    rho=auto.displacement,
                    action=action,
                    labels=auto.constant_config(n),
                    ylabels=ylabels_for(n),
                )
            )
            seed += 1

    # mixed-orbit instances: different automorphisms on different orbits give
    # genuinely non-constant accepted configurations (single transitive orbits
    # at displacement 1 force one constant automorphism, so this is the
    # structural source of non-constant coverage)
    pairs = [
        ("identity", "swap"),
        ("swap", "inversion"),
        ("identity", "nielsen"),
        ("nielsen", "swap"),
        ("inversion", "nielsen"),
        ("inversion", "identity"),
    ]
    for k, (left, right) in enumerate(pairs):
        a1 = sample_action(5, ctx.rank, seed=2000 + k)
        a2 = sample_action(6, ctx.rank, seed=3000 + k)
        action = _block_action(a1, a2)
        labels = (
            autos[left].constant_config(5) + autos[right].constant_config(6)
        )
        rho = max(autos[left].displacement, autos[right].displacement)
        instances.append(
            Instance(
                name=f"mixed-{left}-{right}",
                rho=rho,
                action=action,
                labels=labels,
                ylabels=ylabels_for(11),
                source="mixed",
            )
        )

    # on a transitive action at displacement 1 the constant automorphism
    # configurations are the only solution family, so these take the swap's;
    # the sampler finds non-constant solutions on small multi-orbit actions
    for k in range(3):
        instances.append(
            Instance(
                name=f"transitive-swap-{k}",
                rho=1,
                action=sample_action(6, ctx.rank, seed=4000 + k),
                labels=autos["swap"].constant_config(6),
                ylabels=ylabels_for(6),
            )
        )
    for k in range(4):
        action = _block_action(
            sample_action(2, ctx.rank, seed=5000 + k),
            sample_action(3, ctx.rank, seed=6000 + k),
        )
        found = sample_sft_config(ctx, 1, action, seed=50 + k, budget=60000, restarts=2)
        if found is not None:
            instances.append(
                Instance(
                    name=f"sampled-free-{k}",
                    rho=1,
                    action=action,
                    labels=found,
                    ylabels=ylabels_for(5),
                    source="sampler",
                )
            )
    return instances


@pytest.fixture(scope="session")
def accepted_instances(ctx2) -> list[Instance]:
    return build_instances(ctx2)
