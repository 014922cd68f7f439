"""The four workloads: seeded input files and the fixed job list each one runs.

Every input is derived from the workload seed; the program only sees the
files.  ``build`` writes them into a directory whose file names the jobs use
as bare relative paths, so config hashes, and with them the outputs, do not
depend on where the checkout lives.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

import checks

WORKLOADS = ("estimate_mc", "estimate_exact", "markov_exact", "orbit_change")
RANK = 2  # every weight and action has two generators


@dataclass
class Result:
    code: int | None
    stdout: str
    stderr: str
    out_text: str
    seconds: float


@dataclass
class Job:
    """One CLI invocation.  A job with a ``stream`` gets a fresh input before
    each execution: ``stream(k)`` writes the k-th file and ``argv`` names it
    through ``{k}``.  Fresh inputs keep the program's in-process caches (the
    factoring cache of exact entropies) from hiding the cost a user pays."""

    key: str
    command: str
    argv: list[str]
    check: Callable[[Result], str | None]
    out: str | None = None
    stream: Callable[[int], None] | None = None

    def argv_for(self, k: int) -> list[str]:
        return [a.format(k=k) for a in self.argv] if self.stream else list(self.argv)

    def label(self, k: int) -> str:
        return f"{self.key}#{k}" if self.stream else self.key


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _write(root: str, name: str, data) -> None:
    with open(os.path.join(root, name), "w", encoding="utf-8", newline="") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _num(p):
    if isinstance(p, F):
        return {"num": p.numerator, "den": p.denominator}
    return p


def weight_json(vertex: dict, edges: dict) -> dict:
    """Weight file from vertex {a: p} and edge {(a, b, i): p}; zero edges dropped."""
    return {
        "rank": RANK,
        "alphabet": list(vertex),
        "vertex": {a: _num(p) for a, p in vertex.items()},
        "edge": [
            {"from": a, "to": b, "gen": i, "p": _num(p)}
            for (a, b, i), p in sorted(edges.items(), key=lambda kv: (kv[0][2], kv[0][0], kv[0][1]))
            if p != 0
        ],
    }


def bernoulli(p: F) -> dict:
    base = {"0": p, "1": 1 - p}
    edges = {(a, b, i): base[a] * base[b] for a in base for b in base for i in range(1, RANK + 1)}
    return weight_json(base, edges)


def golden_mean(p: F, gens=(1, 2), names=("0", "1")) -> dict:
    """Weight with vertex (p, 1-p), p > 1/2, that never puts the
    second symbol next to itself along the generators in ``gens``; the other
    generator is a fixed symmetric coupling.  Its support is a
    nearest-neighbour constraint system."""
    a, b = names
    vertex = {a: p, b: 1 - p}
    edges = {}
    for i in (1, 2):
        if i in gens:
            edges.update({(a, a, i): 2 * p - 1, (a, b, i): 1 - p, (b, a, i): 1 - p})
        else:
            c = (1 - p) * F(2, 5)
            edges.update({(a, a, i): p - c, (a, b, i): c, (b, a, i): c, (b, b, i): 1 - p - c})
    return weight_json(vertex, edges)


def float_weight(rng: random.Random, size: int = 12) -> dict:
    """Balanced float weight: a product coupling moved along random symmetric
    2x2 exchanges, which keep every row and column sum."""
    raw = [rng.uniform(0.5, 1.5) for _ in range(size)]
    v = [x / sum(raw) for x in raw]
    names = [str(a) for a in range(size)]
    edges = {}
    for i in range(1, RANK + 1):
        m = [[v[a] * v[b] for b in range(size)] for a in range(size)]
        for _ in range(3):
            a, b = rng.sample(range(size), 2)
            d = rng.uniform(0.1, 0.5) * min(m[a][a], m[b][b])
            m[a][b] += d
            m[b][a] += d
            m[a][a] -= d
            m[b][b] -= d
        edges.update({(names[a], names[b], i): m[a][b] for a in range(size) for b in range(size)})
    return weight_json(dict(zip(names, v)), edges)


# ---------------------------------------------------------------------------
# weights whose exact entropies need a large factorization
# ---------------------------------------------------------------------------


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [p for p in range(limit) if flags[p]]


SMALL_PRIMES = _sieve(20000)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in SMALL_PRIMES[:12]:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in SMALL_PRIMES[:12]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def cheap_to_factor(n: int) -> bool:
    """Trial division needs under ~10^4 steps: every prime factor but the
    largest is below 2*10^4 and the largest is below (2*10^4)^2."""
    for p in SMALL_PRIMES:
        while n % p == 0:
            n //= p
    return n == 1 or (n < SMALL_PRIMES[-1] ** 2 and is_prime(n))


def semiprime_weight(rng: random.Random) -> dict:
    """Weight whose entries all share the denominator D = p1 p2 with
    p1, p2 primes near 10^7, and whose numerators factor cheaply.  Its exact
    entropies then cost one trial-division factorization of D (about 5*10^6
    steps), the same for every seed."""
    p1 = next_prime(10**7 + rng.randrange(10**5))
    p2 = next_prime(p1 + 2 + rng.randrange(10**5))
    d = p1 * p2
    a = rng.randrange(10**3, 10**5)
    while not (cheap_to_factor(d - a) and cheap_to_factor(d - 2 * a)):
        a += 1
    vertex = {"0": F(d - a, d), "1": F(a, d)}
    edges = {}
    for i in (1, 2):
        edges.update({("0", "0", i): F(d - 2 * a, d), ("0", "1", i): F(a, d), ("1", "0", i): F(a, d)})
    return weight_json(vertex, edges)


# ---------------------------------------------------------------------------
# finite actions
# ---------------------------------------------------------------------------


def _perm(rng: random.Random, n: int) -> list[int]:
    p = list(range(n))
    rng.shuffle(p)
    return p


def random_action(rng: random.Random, n: int) -> dict:
    return {"n": n, "rank": RANK, "perms": [_perm(rng, n) for _ in range(RANK)]}


def block_action(rng: random.Random, sizes) -> dict:
    perms = [[] for _ in range(RANK)]
    offset = 0
    for size in sizes:
        for perm in perms:
            perm.extend(v + offset for v in _perm(rng, size))
        offset += size
    return {"n": offset, "rank": RANK, "perms": perms}


def transitive_action(rng: random.Random, n: int) -> dict:
    while True:
        action = random_action(rng, n)
        seen, todo = {0}, [0]
        while todo:
            v = todo.pop()
            for perm in action["perms"]:
                for u in (perm[v], perm.index(v)):
                    if u not in seen:
                        seen.add(u)
                        todo.append(u)
        if len(seen) == n:
            return action


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


# Seeds pick weights whose entries share one denominator, so exact arithmetic
# costs about the same for every seed.


def _estimate_mc(fv, root, seed, rng):
    # few actions with 2^n labelings each: bound by the count_omega inner loop
    _write(root, "uniform.json", bernoulli(F(1, 2)))
    _write(root, "golden.json", golden_mean(F(rng.randint(6, 9), 11)))
    _write(
        root,
        "golden_sft.json",
        {"alphabet": ["0", "1"], "forbidden": [{"": "1", "a": "1"}, {"": "1", "b": "1"}], "nearest_neighbor": True},
    )
    window = {"weight": "uniform.json", "window": 1, "epsilon": "5/4", "n_list": [12, 13],
              "mode": "monte_carlo", "samples": 2, "seed": rng.randrange(10**9)}
    edge = {"weight": "golden.json", "window": 1, "epsilon": "1/2", "n_list": [13, 14],
            "mode": "monte_carlo", "samples": 2, "seed": rng.randrange(10**9),
            "distance_mode": "edge_star", "sft": "golden_sft.json"}
    _write(root, "mc_window.json", window)
    _write(root, "mc_edge.json", edge)
    return [
        Job("window_r1", "f_estimate", ["f-estimate", "--config", "mc_window.json", "--threads", "2"],
            lambda r: checks.f_estimate(r, window["n_list"], 2, 2, 2)),
        Job("edge_star_sft", "f_estimate", ["f-estimate", "--config", "mc_edge.json", "--threads", "2"],
            lambda r: checks.f_estimate(r, edge["n_list"], 2, 2, 2)),
    ]


def _estimate_exact(fv, root, seed, rng):
    # many small count_omega calls over all n!^2 = 576 actions at n = 4; at
    # n = 5 one job would take 4-10 s, longer than the host keeps one speed
    _write(root, "base.json", bernoulli(F(rng.randint(2, 5), 7)))
    r0 = {"weight": "base.json", "window": 0, "epsilon": "3/10", "n_list": [4], "mode": "exact"}
    edge = {"weight": "base.json", "window": 1, "epsilon": "3/5", "n_list": [4], "mode": "exact",
            "distance_mode": "edge_star"}
    _write(root, "exact_r0.json", r0)
    _write(root, "exact_edge.json", edge)
    return [
        Job("edge_star", "f_estimate", ["f-estimate", "--config", "exact_edge.json"],
            lambda r: checks.f_estimate(r, edge["n_list"], 2, None, 2)),
        Job("window_r0", "f_estimate", ["f-estimate", "--config", "exact_r0.json"],
            lambda r: checks.f_estimate(r, r0["n_list"], 2, None, 2)),
    ]


def _markov_exact(fv, root, seed, rng):
    # weights and shift JSON only; no counting call
    # the cost of markovize and of exact entropies depends on the weight's
    # values, so the seed picks only the symbol names
    names = tuple(rng.sample([a + b for a in "abcdefgh" for b in "pqrstuvw"], 2))
    sparse = golden_mean(F(9, 13), gens=(1,), names=names)
    _write(root, "sparse.json", sparse)
    ctx = fv.FreeGroupCtx(RANK)
    marginal = fv.marginal_distribution(fv.Weight.from_json(sparse), ctx.ball(2)).to_json(ctx)
    marginal["rank"] = RANK
    _write(root, "marginal.json", marginal)
    _write(root, "float.json", float_weight(rng))
    q = 10**6

    def semiprime_stream(key):
        def write(k):
            _write(root, f"{key}_{k}.json", semiprime_weight(_rng("markov_exact", seed, key, k)))

        return write

    return [
        Job("markovize", "markovize",
            ["weight-tools", "markovize", "--marginals", "marginal.json", "--weight", "sparse.json",
             "--out", "super.json"], checks.markovize, out="super.json"),
        Job("f_exact_super", "f_exact", ["f-exact", "--weight", "super.json"], checks.f_exact),
        Job("f_exact_semiprime_a", "f_exact", ["f-exact", "--weight", "semiprime_a_{k}.json"],
            checks.f_exact, stream=semiprime_stream("semiprime_a")),
        Job("f_exact_semiprime_b", "f_exact", ["f-exact", "--weight", "semiprime_b_{k}.json"],
            checks.f_exact, stream=semiprime_stream("semiprime_b")),
        Job("rationalize", "rationalize",
            ["weight-tools", "rationalize", "--weight", "float.json", "--q", str(q), "--out", "rational.json"],
            lambda r: checks.rationalize(r, q), out="rational.json"),
    ]


def _orbit_change(fv, root, seed, rng):
    # the only workload that calls sft and orbitmaps.  Seeds vary the actions,
    # not the automorphisms, so the work per job is the same for every seed.
    n = 200
    jobs = []
    for key, rho, images in (
        ("rearrange_nielsen", 2, {"a": "ab", "b": "b"}),
        ("rearrange_swap", 1, {"a": "b", "b": "a"}),
    ):
        _write(root, f"{key}_sigma.json", random_action(rng, n))
        _write(root, f"{key}.json", {"rank": RANK, "rho": rho, "sigma": {"file": f"{key}_sigma.json"},
                                     "x": {"automorphism": {"images": images}},
                                     "y_alphabet": ["p", "q"], "seed": rng.randrange(10**9)})
        jobs.append(Job(key, "rearrange", ["rearrange", "--config", f"{key}.json"], checks.rearrange))
    _write(root, "verify_sigma.json", random_action(rng, n))
    _write(root, "verify.json", {"rank": RANK, "rho": 2, "sigma": {"file": "verify_sigma.json"},
                                 "x": {"automorphism": {"images": {"a": "a", "b": "ba"}}}})
    jobs.append(Job("sft_verify", "sft_verify", ["sft-verify", "--config", "verify.json"],
                    lambda r: checks.sft_verify(r, n)))
    # The sampler finds configurations on two-block actions and runs out of
    # budget on small transitive ones.  How long a budgeted search takes
    # depends strongly on the instance, so these inputs are the same for
    # every seed.
    fixed = _rng("orbit_change", "sampler", 1)
    samplers = [("sampler_block", k, block_action(fixed, (2, 2)), {"budget": 60000, "restarts": 2}) for k in range(3)]
    samplers += [("sampler_transitive", k, transitive_action(fixed, 4), {}) for k in range(2)]
    for name, k, action, budget in samplers:
        key = f"{name}_{k}"
        _write(root, f"{key}_sigma.json", action)
        _write(root, f"{key}.json", {"rank": RANK, "rho": 1, "sigma": {"file": f"{key}_sigma.json"},
                                     "x": {"sampler": {"seed": fixed.randrange(10**9), **budget}}})
        jobs.append(Job(key, "rearrange", ["rearrange", "--config", f"{key}.json"],
                        lambda r: checks.rearrange(r, sampler=True)))
    return jobs


BUILDERS = {
    "estimate_mc": _estimate_mc,
    "estimate_exact": _estimate_exact,
    "markov_exact": _markov_exact,
    "orbit_change": _orbit_change,
}


def build(workload: str, fv, seed: int, root: str) -> list[Job]:
    """Write the workload's inputs for ``seed`` into ``root`` and return its
    job list.  ``fv`` is the imported finvariant package, used only to derive
    the marginal file of ``markov_exact``."""
    os.makedirs(root, exist_ok=True)
    return BUILDERS[workload](fv, root, seed, _rng(workload, seed))
