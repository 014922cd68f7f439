"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from finvariant import (
    WindowError,
    Automorphism,
    Caps,
    F_value,
    FreeGroupCtx,
    Neighborhood,
    count_omega,
    decode_E,
    encode_F,
    enumerate_actions,
    expected_count,
    marginal_distribution,
    pattern_inverse_eval,
    pullback_name,
    reconstruct_sigma,
    sample_action,
    shannon_entropy,
    tau_construct,
    verify_zrho,
)
from finvariant.cli import main
from finvariant.freegroup import IDENTITY, inv, mul, reduce_word
from finvariant.orbitmaps import LocalBijection
from finvariant.weights import Weight

from conftest import canonical_automorphisms
from paper_objects import (
    Alphabet,
    F_coefficients,
    act,
    apply_block_code,
    bernoulli_weight,
    bijection,
    compose,
    compose_after_inverse,
    encode_E,
    join_code,
    nn_spec,
    one_site_law,
    realized_displacement,
    restrict,
    shift_pattern,
    theta_action,
    upsilon_action,
    weight_estimate,
    zrho_admissible,
)
from test_weights import (
    entropy_rate_oracle,
    enumerated_F_value,
    random_exact_chain_weight,
    reversible_weight,
)

CTX = FreeGroupCtx(2)
CTX1 = FreeGroupCtx(1)
LN2 = math.log(2)


def report(number: int, name: str, ok: bool, t0: float, limit: float, note: str = ""):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < limit else "FAIL"
    suffix = f"  [{note}]" if note else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({elapsed:.2f}s / limit {limit:.0f}s){suffix}")
    assert elapsed < limit, f"criterion {number} exceeded its runtime budget"
    return ok


def test_criterion_01_bernoulli_invariant(tmp_path):
    """The invariant of a product weight is the base entropy: ln 2 for the
    uniform two-symbol base (within 1e-12 through the command path) and with
    exact symbolic equality for random rational bases."""
    t0 = time.perf_counter()
    w = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2)
    path = tmp_path / "half.json"
    path.write_text(json.dumps(w.to_json()))
    out = tmp_path / "report.txt"
    ok = main(["f-exact", "--weight", str(path), "--out", str(out)]) == 0
    f_line = next(l for l in out.read_text().splitlines() if l.startswith("f_nats:"))
    ok &= abs(float(f_line.split()[1]) - LN2) <= 1e-12

    rng = random.Random(101)
    for _ in range(5):
        raw = [rng.randint(1, 19) for _ in range(rng.randint(2, 4))]
        total = sum(raw)
        base = {f"s{k}": Fraction(x, total) for k, x in enumerate(raw)}
        wb = bernoulli_weight(base, 2)
        value = F_value(wb)
        ok &= value.is_exact and value == shannon_entropy(one_site_law(base.values()))
    assert report(1, "bernoulli invariant", ok, t0, 1.0)


def test_criterion_02_markov_entropy_rate():
    """Rank-1 weights reduce to the classical chain entropy rate, against an
    independently coded oracle with an exact stationary solve."""
    t0 = time.perf_counter()
    rng = random.Random(202)
    ok = True
    for _ in range(20):
        w = random_exact_chain_weight(("0", "1", "2"), rng)
        oracle = entropy_rate_oracle(w)
        ok &= abs(float(F_value(w)) - oracle) <= 1e-10
        ok &= abs(float(enumerated_F_value(CTX1, w, 0)) - oracle) <= 1e-10
    assert report(2, "markov entropy rate", ok, t0, 1.0)


def test_criterion_03_join_radius_constancy():
    """For Markov weights the functional does not depend on the join radius:
    from enumerated marginals at radius 0 and 1 it is F_value's formula, and
    the chain rule gives the formula's coefficients at radius 0, 1 and 2
    (enumeration at radius 2 is beyond PATTERN_CAP)."""
    t0 = time.perf_counter()
    rng = random.Random(303)
    ok = True
    for _ in range(10):
        w = reversible_weight(2, ("0", "1"), rng)
        f = float(F_value(w))
        for k in (0, 1):
            ok &= abs(float(enumerated_F_value(CTX, w, k)) - f) <= 1e-9
    ok &= F_coefficients(CTX, 0) == F_coefficients(CTX, 1) == F_coefficients(CTX, 2) == (-3, 1, 1)
    assert report(3, "join-radius constancy", ok, t0, 60.0)


def test_criterion_04_estimator_consistency():
    """Growth-rate estimate on the edge-star statistic approaches the
    product-weight entropy ln 2 as n grows.

    The target is the radius-1 marginal of the uniform Bernoulli weight, and
    labelings are counted within star distance 0.1: the sum over the two
    generators of the l1 distance between the labeling's pair statistics and
    the target's projected pair marginals (1/4 each).  These edge statistics
    are what fixes the f-invariant of a Markov measure.  Exact pair
    statistics need 4 | n, so n runs over 4, 8, 12; there the smallest
    non-zero star distance is 1/2, 1/4 and 1/6, far from the tolerance, while
    n = 6 and 10 are empty (smallest distance 2/3 and 0.4).  The error
    |est - ln 2| must strictly decrease, which a counter accepting every
    labeling (error 0 at every n) would fail.

    The full radius-1 window statistic cannot be used at this n: an n-vertex
    labeling puts mass on at most n of the 32 radius-1 patterns, so its l1
    distance to the uniform target is at least 2(1 - n/32) > 0.1 for n < 32
    and every count is 0 (checked in test_counting).
    """
    t0 = time.perf_counter()
    w = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2)
    result = weight_estimate(
        CTX,
        w,
        1,
        0.1,
        [4, 8, 12],
        mode="monte_carlo",
        samples=200,
        seed=404,
        distance_mode="edge_star",
    )
    errs = {row.n: abs(row.log_mean_over_n - LN2) for row in result.rows}
    ok = errs[4] > errs[8] > errs[12] and errs[12] <= 0.35
    report(
        4,
        "estimator consistency",
        ok,
        t0,
        300.0,
        note="edge-star statistic at window 1; the full window is empty for n<32",
    )
    assert ok, (
        "edge-star estimate error |est - ln 2| must strictly decrease over "
        f"n = 4, 8, 12 and end at most 0.35; got {errs}"
    )

    # the exact companion: the same averages over all n!^2 actions, summed by
    # labeling type, which also places each Monte Carlo mean
    caps = Caps(exact_actions=math.factorial(12) ** 2, labelings=2**12)
    exact = weight_estimate(CTX, w, 1, 0.1, [4, 8, 12], mode="exact", distance_mode="edge_star", caps=caps)
    exact_errs = {row.n: abs(row.log_mean_over_n - LN2) for row in exact.rows}
    assert exact_errs[4] > exact_errs[8] > exact_errs[12] and exact_errs[12] <= 0.35, exact_errs
    for mc, ex in zip(result.rows, exact.rows):
        assert abs(mc.mean_count - ex.mean_count) <= 4 * mc.stderr, (mc, ex)


def test_criterion_05_exact_vs_monte_carlo():
    """Monte Carlo count averaging is unbiased against exhaustive enumeration
    of all 36 rank-2 actions on three points."""
    t0 = time.perf_counter()
    w = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2)
    target = marginal_distribution(w, CTX.ball(1))
    nbhd = Neighborhood(target=target, epsilon=1.85)
    exact = expected_count(CTX, 3, ("0", "1"), nbhd, mode="exact")
    ok = exact.samples == 36
    mc = expected_count(
        CTX, 3, ("0", "1"), nbhd, mode="monte_carlo", samples=10_000, seed=505
    )
    ok &= abs(mc.mean_count - exact.mean_count) <= 3 * mc.stderr
    assert report(5, "exact vs monte carlo", ok, t0, 60.0)


def test_criterion_06_orbit_encoding_constraints(accepted_instances):
    """Automorphism configurations verify at their computed displacement; the
    decoded map of every accepted instance is a bijection onto the
    displacement ball with an exact encode round trip; axiom-1 mutations are
    rejected."""
    t0 = time.perf_counter()
    autos = canonical_automorphisms(CTX)
    ok = True

    expected_rho = {"identity": 1, "swap": 1, "inversion": 1, "nielsen": 2}
    action = sample_action(9, 2, seed=606)
    for name, auto in autos.items():
        rho = auto.displacement
        ok &= rho == expected_rho[name]
        labels = auto.constant_config(9)
        for check_rho in range(rho, 3):
            ok &= zrho_admissible(CTX, check_rho, action, labels)

    ok &= len(accepted_instances) >= 50
    ok &= all(inst.action.n <= 12 for inst in accepted_instances)
    for inst in accepted_instances:
        rho = inst.rho
        radius = rho * rho + 1
        seen = {}
        for v in range(inst.action.n):
            pattern = pullback_name(CTX, inst.action, inst.labels, v, radius)
            key = pattern.values
            if key in seen:
                continue
            phi = decode_E(CTX, pattern)  # raises if not injective
            image = set(phi.table.values())
            ok &= all(h in image for h in CTX.ball(rho))
            ok &= restrict(encode_E(CTX, phi), pattern.domain) == pattern
            seen[key] = phi

        # every single-coordinate corruption of a symbol violates axiom 1
        base = list(inst.labels)
        ball_rho = CTX.ball(rho)
        for pos in range(2 * CTX.rank):
            sym = list(base[0])
            replacement = next(wd for wd in ball_rho if wd != sym[pos])
            sym[pos] = replacement
            mutated = [tuple(sym)] + base[1:]
            ok &= not zrho_admissible(CTX, rho, inst.action, tuple(mutated))
    assert report(6, "orbit-encoding constraint system", ok, t0, 300.0)


def test_criterion_07_rearrangement_suite(accepted_instances):
    """On the same accepted instances: the rearranged action is multiplicative,
    satisfies the pullback identity on the radius-2 ball, transports labels by
    composition with the inverse map, and reconstructs the original action."""
    t0 = time.perf_counter()
    rng = random.Random(707)
    ok = True
    outputs = set()
    for inst in accepted_instances:
        rho = inst.rho
        action, labels = inst.action, inst.labels
        n = action.n
        tau = tau_construct(CTX, action, verify_zrho(CTX, rho, action, labels))

        # multiplicativity of the generator images on random word pairs
        for _ in range(100):
            g = reduce_word(rng.choices(CTX.letters, k=rng.randint(0, 2)))
            h = reduce_word(rng.choices(CTX.letters, k=rng.randint(0, 2)))
            gh = mul(g, h)
            for v in range(n):
                ok &= act(tau, gh, v) == act(tau, g, act(tau, h, v))

        # the defining formula itself is multiplicative: evaluating it on
        # length-2 words through the inverse-witness search matches tau
        patterns = {}
        for v in range(n):
            patterns[v] = pullback_name(CTX, action, labels, v, rho * rho + 1)
        for g in CTX.ball(2):
            if not g:
                continue
            for v in range(n):
                w = pattern_inverse_eval(CTX, rho, patterns[v], inv(g))
                ok &= act(tau, g, v) == act(action, inv(w), v)

        # pullback identity and labeled transport
        m = 2
        phi_cache = {}
        for v in range(n):
            key = patterns[v].values
            if key not in phi_cache:
                phi_cache[key] = decode_E(CTX, patterns[v])
            phi_v = phi_cache[key]
            ok &= pullback_name(CTX, tau, labels, v, m) == restrict(
                encode_F(CTX, phi_v), CTX.ball(m)
            )
            y_sigma = pullback_name(CTX, action, inst.ylabels, v, 2 * rho)
            lhs = pullback_name(CTX, tau, inst.ylabels, v, m)
            rhs = restrict(compose_after_inverse(phi_v, y_sigma), CTX.ball(m))
            ok &= lhs == rhs

        ok &= reconstruct_sigma(CTX, tau, labels) == action
        outputs.add((tau.perms, labels, inst.ylabels))
    ok &= len(outputs) == len(accepted_instances)
    assert report(7, "rearrangement suite", ok, t0, 300.0)


def _equivariance_pool():
    autos = canonical_automorphisms(CTX)
    window = 5
    pool = [bijection(auto, window) for auto in autos.values()]
    table = {g: g for g in CTX.ball(window)}
    u, v = CTX.parse("a"), CTX.parse("aa")
    table[u], table[v] = table[v], table[u]
    trans = LocalBijection(window, realized_displacement(CTX, table), table)
    pool.append(trans)
    pool.append(compose(CTX, bijection(autos["swap"], window + 1), trans))
    pool.append(compose(CTX, trans, bijection(autos["inversion"], window + 1)))
    return pool


def _direct_upsilon_table(h, phi):
    target = inv(h)
    g0 = next(k for k, val in phi.table.items() if val == target)
    out = {}
    for g in CTX.ball(max(phi.window - len(g0), 0)):
        arg = mul(g0, g)
        if arg in phi.table:
            out[g] = mul(h, phi.table[arg])
    return out


def test_criterion_08_equivariance_suite():
    """Both encodings intertwine their actions, the paired versions do too,
    and the two actions share orbits with explicit witnesses."""
    t0 = time.perf_counter()
    rng = random.Random(808)
    pool = _equivariance_pool()
    counts = {k: 0 for k in ("equi1", "equi2", "tc1", "tc2", "orbit")}
    ok = True

    def random_h():
        while True:
            h = reduce_word(rng.choices(CTX.letters, k=rng.randint(1, 2)))
            if h:
                return h

    while min(counts.values()) < 1000:
        phi = rng.choice(pool)
        h = random_h()
        ypat_ball = CTX.ball(3)
        from finvariant import Pattern

        ypat = Pattern(ypat_ball, [rng.choice("pq") for _ in ypat_ball])

        lhs = encode_E(CTX, theta_action(CTX, h, phi))
        rhs = shift_pattern(h, encode_E(CTX, phi))
        common = [g for g in lhs.domain if g in rhs]
        ok &= bool(common) and all(lhs[g] == rhs[g] for g in common)
        counts["equi1"] += 1

        try:
            lhs = encode_F(CTX, upsilon_action(CTX, h, phi))
            rhs = shift_pattern(h, encode_F(CTX, phi))
            common = [g for g in lhs.domain if g in rhs]
            ok &= bool(common) and all(lhs[g] == rhs[g] for g in common)
            counts["equi2"] += 1
        except WindowError:
            pass  # window exhausted for this draw; draw again

        tphi, ty = theta_action(CTX, h, phi), shift_pattern(h, ypat)
        lx, ly = encode_E(CTX, tphi), ty
        rx = shift_pattern(h, encode_E(CTX, phi))
        common = [g for g in lx.domain if g in rx]
        ok &= bool(common) and all(lx[g] == rx[g] for g in common)
        ok &= ly == shift_pattern(h, ypat)
        counts["tc1"] += 1

        try:
            uphi = upsilon_action(CTX, h, phi)
            uy = shift_pattern(inv(phi.inverse[inv(h)]), ypat)
            lx, ly = encode_F(CTX, uphi), compose_after_inverse(uphi, uy)
            rx, ry = encode_F(CTX, phi), compose_after_inverse(phi, ypat)
            rx, ry = shift_pattern(h, rx), shift_pattern(h, ry)
            cx = [g for g in lx.domain if g in rx]
            cy = [g for g in ly.domain if g in ry]
            ok &= bool(cx) and all(lx[g] == rx[g] for g in cx)
            ok &= bool(cy) and all(ly[g] == ry[g] for g in cy)
            counts["tc2"] += 1
        except WindowError:
            pass

        # same orbits, both directions, against the literal formula
        witness = inv(phi.inverse[inv(h)])
        direct = _direct_upsilon_table(h, phi)
        via_theta = theta_action(CTX, witness, phi)
        common = set(direct) & set(via_theta.table)
        ok &= bool(common) and all(direct[g] == via_theta.table[g] for g in common)
        back = inv(phi(inv(h)))
        direct2 = _direct_upsilon_table(back, phi)
        via_theta2 = theta_action(CTX, h, phi)
        common2 = set(direct2) & set(via_theta2.table)
        ok &= bool(common2) and all(direct2[g] == via_theta2.table[g] for g in common2)
        counts["orbit"] += 1

    ok &= all(c >= 1000 for c in counts.values())
    assert report(8, "equivariance suite", ok, t0, 60.0)


def test_criterion_09_restricted_count_coherence():
    """Constrained counts never exceed unconstrained ones; exact-statistics
    counting makes the support restriction vacuous; the join recoding is
    injective on exhaustive small instances."""
    t0 = time.perf_counter()
    ok = True

    w = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2)
    target1 = marginal_distribution(w, CTX.ball(1))
    diag = Weight.from_tables(
        2,
        ("0", "1"),
        {"0": Fraction(1, 2), "1": Fraction(1, 2)},
        {
            ("0", "0", 1): Fraction(1, 2),
            ("1", "1", 1): Fraction(1, 2),
            ("0", "0", 2): Fraction(1, 4),
            ("0", "1", 2): Fraction(1, 4),
            ("1", "0", 2): Fraction(1, 4),
            ("1", "1", 2): Fraction(1, 4),
        },
    )
    diag_target = marginal_distribution(diag, CTX.ball(1))
    support = nn_spec(("0", "1"), [("0", "1", 1), ("1", "0", 1)])

    # restricted counts are dominated by unrestricted ones
    for seed in range(20):
        action = sample_action(4, 2, seed=seed)
        for eps in (0.8, 1.5, 2.0):
            plain = count_omega(CTX, action, ("0", "1"), Neighborhood(target=target1, epsilon=eps))
            tight = count_omega(
                CTX, action, ("0", "1"), Neighborhood(target=target1, epsilon=eps, sft=support)
            )
            ok &= tight <= plain

    # exact statistics make the support restriction free, in both modes
    star_hits = window_hits = 0
    for seed in range(30):
        action = sample_action(4, 2, seed=seed)
        a = count_omega(
            CTX, action, ("0", "1"),
            Neighborhood(target=diag_target, epsilon=Fraction(0), mode="edge_star"),
        )
        b = count_omega(
            CTX, action, ("0", "1"),
            Neighborhood(target=diag_target, epsilon=Fraction(0), mode="edge_star", sft=support),
        )
        ok &= a == b
        star_hits += a
    for seed in range(30):
        action = sample_action(8, 2, seed=seed)
        a = count_omega(
            CTX, action, ("0", "1"), Neighborhood(target=diag_target, epsilon=Fraction(0))
        )
        b = count_omega(
            CTX, action, ("0", "1"),
            Neighborhood(target=diag_target, epsilon=Fraction(0), sft=support),
        )
        ok &= a == b
        window_hits += a
    ok &= star_hits > 0 and window_hits > 0

    # join recoding: exhaustive over all labelings and all actions for n <= 4
    code = join_code(CTX, Alphabet(("0", "1")), 1)
    e_idx = CTX.ball(1).index(IDENTITY)
    for n in (2, 3, 4):
        for action in enumerate_actions(n, 2):
            images = set()
            for labels in itertools.product(("0", "1"), repeat=n):
                eta = apply_block_code(CTX, code, action, labels)
                images.add(eta)
                ok &= tuple(sym[e_idx] for sym in eta) == labels
            ok &= len(images) == 2**n
    assert report(9, "restricted-count coherence", ok, t0, 120.0)


def test_criterion_10_determinism(tmp_path):
    """Randomized commands repeated with the same seed and different thread
    counts produce byte-identical outputs."""
    t0 = time.perf_counter()
    ok = True

    w = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2)
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(w.to_json()))
    est_cfg = tmp_path / "est.json"
    est_cfg.write_text(
        json.dumps(
            {
                "weight": str(wpath),
                "window": 0,
                "epsilon": 0.1,
                "n_list": [3, 4],
                "mode": "monte_carlo",
                "samples": 50,
                "seed": 1010,
            }
        )
    )
    blobs = []
    for threads in (1, 4, 1):
        out = tmp_path / f"est-{len(blobs)}.csv"
        ok &= main(["f-estimate", "--config", str(est_cfg), "--threads", str(threads), "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    ok &= blobs[0] == blobs[1] == blobs[2]

    re_cfg = tmp_path / "re.json"
    re_cfg.write_text(
        json.dumps(
            {
                "rank": 2,
                "rho": 1,
                "sigma": {"n": 7, "seed": 11},
                "x": {"automorphism": {"images": {"a": "b", "b": "a"}}},
                "y_alphabet": ["p", "q"],
                "seed": 11,
            }
        )
    )
    reports = []
    for k in range(2):
        out = tmp_path / f"re-{k}.txt"
        ok &= main(["rearrange", "--config", str(re_cfg), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    ok &= reports[0] == reports[1]
    assert report(10, "determinism", ok, t0, 60.0)
