"""Orbit-change maps: encodings, the two actions, equivariances, and the
rearrangement pipeline.

The upsilon-action oracle below evaluates the defining formula literally and
independently of the library's theta-reduction, so the same-orbit identities
are genuine cross-checks rather than restatements of the implementation.
"""

import itertools
import json
import os
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from finvariant import (
    Automorphism,
    ConstructionError,
    FiniteAction,
    FreeGroupCtx,
    InputError,
    LocalBijection,
    Pattern,
    PreconditionError,
    VerificationError,
    WindowError,
    axioms_check,
    decode_E,
    encode_F,
    pattern_inverse_eval,
    pullback_name,
    reconstruct_sigma,
    sample_action,
    tau_construct,
    verify_zrho,
)
from finvariant.freegroup import IDENTITY, inv, mul, reduce_word
from finvariant.orbitmaps import Pullbacks
from finvariant.sft import AxiomsReport, symbol_entry, telescope

from paper_objects import (
    act,
    agree_on_common_window,
    bijection,
    check_automorphism_by_scan,
    compose,
    compose_after_inverse,
    encode_E,
    invert,
    realized_displacement,
    restrict,
    shift_pattern,
    sym_distance,
    telescope_walk,
    theta_action,
    upsilon_action,
    validate_bijection,
)

CTX = FreeGroupCtx(2)

AUTOS = {
    "identity": Automorphism.from_names(CTX, {"a": "a", "b": "b"}),
    "swap": Automorphism.from_names(CTX, {"a": "b", "b": "a"}),
    "inversion": Automorphism.from_names(CTX, {"a": "A", "b": "b"}),
    "nielsen": Automorphism.from_names(CTX, {"a": "ab", "b": "b"}),
}


def substitute(images, w):
    """The word w with each letter replaced by its image, reduced."""
    out = IDENTITY
    for letter in w:
        out = mul(out, images[letter])
    return out


def transposition(ctx, window, u, v):
    """Swap two nonidentity group elements, identity elsewhere; a genuinely
    non-automorphism bounded bijection."""
    table = {g: g for g in ctx.ball(window)}
    table[u], table[v] = table[v], table[u]
    phi = LocalBijection(window, realized_displacement(ctx, table), table)
    return phi


def phi_pool(window=6):
    """Mixed pool: automorphisms, a tree transposition, and their composites."""
    pool = [bijection(auto, window) for auto in AUTOS.values()]
    t = transposition(CTX, window, CTX.parse("a"), CTX.parse("aa"))
    pool.append(t)
    pool.append(compose(CTX, bijection(AUTOS["swap"], window), t))
    pool.append(compose(CTX, t, bijection(AUTOS["inversion"], window)))
    return pool


def direct_upsilon_table(ctx, h, phi):
    """Oracle: (h . phi)(g) = h phi(phi^-1(h^-1) g) evaluated literally."""
    target = inv(h)
    g0 = None
    for k, val in phi.table.items():
        if val == target:
            g0 = k
            break
    assert g0 is not None
    out = {}
    for g in ctx.ball(max(phi.window - len(g0), 0)):
        arg = mul(g0, g)
        if arg in phi.table:
            out[g] = mul(h, phi.table[arg])
    return out


class TestActions:
    def test_theta_fixes_identity(self):
        phi = bijection(AUTOS["identity"], 4)
        th = theta_action(CTX, CTX.parse("ab"), phi)
        assert all(th.table[g] == g for g in th.table)

    def test_theta_and_upsilon_fix_automorphisms(self):
        for auto in AUTOS.values():
            phi = bijection(auto, 5)
            for h in [CTX.parse("a"), CTX.parse("bA")]:
                th = theta_action(CTX, h, phi)
                assert all(th.table[g] == phi.table[g] for g in th.table)
                uh = upsilon_action(CTX, h, phi)
                assert all(uh.table[g] == phi.table[g] for g in uh.table)

    def test_theta_action_law(self):
        rng = random.Random(1)
        pool = phi_pool(7)
        for _ in range(120):
            phi = rng.choice(pool)
            h1 = random_word(rng, 1)
            h2 = random_word(rng, 1)
            lhs = theta_action(CTX, h1, theta_action(CTX, h2, phi))
            rhs = theta_action(CTX, mul(h1, h2), phi)
            assert agree_on_common_window(lhs, rhs)

    def test_window_exhaustion(self):
        phi = bijection(AUTOS["identity"], 1)
        with pytest.raises(WindowError):
            theta_action(CTX, CTX.parse("ab"), phi)

    def test_upsilon_matches_direct_formula(self):
        rng = random.Random(2)
        pool = phi_pool(6)
        for _ in range(150):
            phi = rng.choice(pool)
            h = random_word(rng, 2)
            if not h:
                continue
            got = upsilon_action(CTX, h, phi)
            want = direct_upsilon_table(CTX, h, phi)
            common = set(got.table) & set(want)
            assert common and all(got.table[g] == want[g] for g in common)

    def test_same_orbit_witnesses(self):
        rng = random.Random(3)
        pool = phi_pool(6)
        for _ in range(150):
            phi = rng.choice(pool)
            h = random_word(rng, 2)
            if not h:
                continue
            # upsilon-h equals theta at the explicit witness
            h1 = inv(phi.inverse[inv(h)])
            lhs = direct_upsilon_table(CTX, h, phi)
            rhs = theta_action(CTX, h1, phi)
            common = set(lhs) & set(rhs.table)
            assert common and all(lhs[g] == rhs.table[g] for g in common)
            # theta-h equals upsilon at the reverse witness
            h2 = inv(phi(inv(h)))
            lhs2 = theta_action(CTX, h, phi)
            rhs2 = direct_upsilon_table(CTX, h2, phi)
            common2 = set(lhs2.table) & set(rhs2)
            assert common2 and all(lhs2.table[g] == rhs2[g] for g in common2)


def random_word(rng, max_len):
    from finvariant.freegroup import reduce_word

    return reduce_word(rng.choices(CTX.letters, k=rng.randint(0, max_len)))


class TestEncodeDecode:
    def test_identity_encodes_to_letters(self):
        phi = bijection(AUTOS["identity"], 3)
        x = encode_E(CTX, phi)
        assert all(sym == tuple((l,) for l in CTX.letters) for sym in x.values)

    def test_swap_encodes_to_swapped_letters(self):
        swap = AUTOS["swap"]
        x = encode_E(CTX, bijection(swap, 3))
        expected = tuple(swap.images[l] for l in CTX.letters)
        assert all(sym == expected for sym in x.values)

    def test_encoding_determined_by_identity_cell_and_equivariance(self):
        phi = bijection(AUTOS["nielsen"], 4)
        x = encode_E(CTX, phi)
        assert x[IDENTITY] == tuple(phi(CTX.parse(s)) for s in ("a", "A", "b", "B"))
        for h in (CTX.parse("a"), CTX.parse("b")):
            lhs = encode_E(CTX, theta_action(CTX, h, phi))
            rhs = shift_pattern(h, x)
            common = [g for g in lhs.domain if g in rhs]
            assert common and all(lhs[g] == rhs[g] for g in common)

    def test_decode_constant_identity(self):
        phi = bijection(AUTOS["identity"], 3)
        dec = decode_E(CTX, encode_E(CTX, phi))
        assert dec.table == phi.table

    def test_decode_swap_telescopes(self):
        dec = decode_E(CTX, encode_E(CTX, bijection(AUTOS["swap"], 4)))
        assert dec.table[CTX.parse("ab")] == CTX.parse("ba")

    def test_round_trip_random_pool(self):
        rng = random.Random(4)
        pool = phi_pool(6)
        for _ in range(100):
            base = rng.choice(pool)
            t = random_word(rng, 1)
            try:
                phi = theta_action(CTX, t, base)
            except WindowError:
                continue
            dec = decode_E(CTX, encode_E(CTX, phi))
            assert all(dec.table[g] == phi.table[g] for g in dec.table)

    def test_decode_flags_non_injective(self):
        # collapse everything onto powers of a: the rebuilt map collides
        sym = tuple(
            {1: (1,), -1: (-1,), 2: (1,), -2: (-1,)}[l] for l in CTX.letters
        )
        ball = CTX.ball(2)
        pattern = Pattern(ball, [sym] * len(ball))
        from finvariant import VerificationError

        with pytest.raises(VerificationError, match="not injective on its window: a and b both map to a$"):
            decode_E(CTX, pattern)

    def test_inverse_eval(self):
        phi = bijection(AUTOS["swap"], 4)
        assert phi.inverse[CTX.parse("a")] == CTX.parse("b")
        assert bijection(AUTOS["identity"], 3).inverse[CTX.parse("ab")] == CTX.parse("ab")
        assert CTX.parse("ababab") not in phi.inverse


POOL = phi_pool(6)


class TestBallPatternOracles:
    """The encodings build ball patterns without the sorting constructor and
    decode_E reads the displacement from the distinct symbols only; each is
    checked against the same value rebuilt the slow way."""

    @staticmethod
    def _translate(k, word):
        try:
            return theta_action(CTX, reduce_word(word), POOL[k])
        except WindowError:
            assume(False)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, len(POOL) - 1), st.lists(st.sampled_from(CTX.letters), max_size=2))
    def test_encodings_match_the_sorting_constructor(self, k, word):
        phi = self._translate(k, word)
        e_ball = list(reversed(CTX.ball(phi.window - 1)))
        e_oracle = Pattern(
            e_ball,
            [tuple(mul(inv(phi(h)), phi(mul(h, (s,)))) for s in CTX.letters) for h in e_ball],
        )
        f_ball = list(reversed(CTX.ball((phi.window - 1) // phi.rho)))
        f_oracle = Pattern(
            f_ball,
            [tuple(mul(inv(h), phi(mul(phi.inverse[h], (s,)))) for s in CTX.letters)
             for h in f_ball],
        )
        for got, oracle in ((encode_E(CTX, phi), e_oracle), (encode_F(CTX, phi), f_oracle)):
            assert got == oracle
            assert all(got[g] == oracle[g] for g in oracle.domain)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["identity", "swap", "nielsen"]),
        st.integers(2, 5),
        st.integers(0, len(POOL) - 1),
        st.lists(st.sampled_from(CTX.letters), max_size=2),
    )
    def test_decode_displacement_matches_every_cell(self, name, window, k, word):
        for phi in (bijection(AUTOS[name], window), self._translate(k, word)):
            pattern = encode_E(CTX, phi)
            oracle = max(
                (len(symbol_entry(sym, s)) for sym in pattern.values for s in CTX.letters),
                default=1,
            )
            assert decode_E(CTX, pattern).rho == max(oracle, 1)


class TestEncodeF:
    def test_identity(self):
        f = encode_F(CTX, bijection(AUTOS["identity"], 4))
        assert all(sym == tuple((l,) for l in CTX.letters) for sym in f.values)

    def test_automorphisms_agree_with_E(self):
        for auto in AUTOS.values():
            phi = bijection(auto, 5)
            e_pat = encode_E(CTX, phi)
            f_pat = encode_F(CTX, phi)
            assert all(f_pat[g] == e_pat[g] for g in f_pat.domain)

    def test_equivariance_under_upsilon(self):
        rng = random.Random(5)
        pool = phi_pool(7)
        for _ in range(100):
            phi = rng.choice(pool)
            h = random_word(rng, 1)
            if not h:
                continue
            try:
                lhs = encode_F(CTX, upsilon_action(CTX, h, phi))
            except WindowError:
                continue
            rhs = shift_pattern(h, encode_F(CTX, phi))
            common = [g for g in lhs.domain if g in rhs]
            assert common and all(lhs[g] == rhs[g] for g in common)


class TestProductMaps:
    def _ypattern(self, rng, radius=2):
        ball = CTX.ball(radius)
        return Pattern(ball, [rng.choice("pq") for _ in ball])

    def test_identity_product(self):
        rng = random.Random(6)
        y = self._ypattern(rng)
        phi = bijection(AUTOS["identity"], 4)
        fy = compose_after_inverse(phi, y)
        assert restrict(fy, y.domain[:3]) == restrict(y, y.domain[:3])

    def test_swap_moves_labels(self):
        rng = random.Random(7)
        y = self._ypattern(rng, 1)
        phi = bijection(AUTOS["swap"], 4)
        fy = compose_after_inverse(phi, y)
        assert fy[CTX.parse("a")] == y[CTX.parse("b")]
        assert fy[CTX.parse("b")] == y[CTX.parse("a")]

    def test_e_tilde_equivariance(self):
        rng = random.Random(8)
        pool = phi_pool(6)
        for _ in range(100):
            phi = rng.choice(pool)
            y = self._ypattern(rng, 3)
            h = random_word(rng, 1)
            if not h:
                continue
            tphi, ty = theta_action(CTX, h, phi), shift_pattern(h, y)
            lx, ly = encode_E(CTX, tphi), ty
            rx = shift_pattern(h, encode_E(CTX, phi))
            ry = shift_pattern(h, y)
            common = [g for g in lx.domain if g in rx]
            assert common and all(lx[g] == rx[g] for g in common)
            assert ly == ry

    def test_f_tilde_equivariance(self):
        rng = random.Random(9)
        pool = phi_pool(7)
        for _ in range(100):
            phi = rng.choice(pool)
            y = self._ypattern(rng, 3)
            h = random_word(rng, 1)
            if not h:
                continue
            try:
                uphi = upsilon_action(CTX, h, phi)
                uy = shift_pattern(inv(phi.inverse[inv(h)]), y)
                lx, ly = encode_F(CTX, uphi), compose_after_inverse(uphi, uy)
            except WindowError:
                continue
            rx, ry = encode_F(CTX, phi), compose_after_inverse(phi, y)
            rx, ry = shift_pattern(h, rx), shift_pattern(h, ry)
            cx = [g for g in lx.domain if g in rx]
            assert cx and all(lx[g] == rx[g] for g in cx)
            cy = [g for g in ly.domain if g in ry]
            assert cy and all(ly[g] == ry[g] for g in cy)


class TestPatternInverse:
    def test_swap(self):
        swap = AUTOS["swap"]
        pattern = encode_E(CTX, bijection(swap, 4))
        assert pattern_inverse_eval(CTX, 1, pattern, CTX.parse("a")) == CTX.parse("b")
        assert pattern_inverse_eval(CTX, 1, pattern, CTX.parse("ab")) == CTX.parse("ba")

    def test_matches_table_inverse_on_pool(self):
        rng = random.Random(10)
        for phi in phi_pool(7):
            pattern = encode_E(CTX, phi)
            rho = phi.rho
            for _ in range(20):
                target = random_word(rng, 2)
                try:
                    expected = phi.inverse[target]
                except WindowError:
                    continue
                if len(expected) > rho * max(len(target), 1):
                    continue
                got = pattern_inverse_eval(CTX, rho, pattern, target)
                assert got == expected


class TestTau:
    def test_identity_config_gives_sigma(self):
        action = sample_action(7, 2, seed=11)
        labels = AUTOS["identity"].constant_config(7)
        tau = tau_construct(CTX, action, verify_zrho(CTX, 1, action, labels))
        assert tau == action

    def test_swap_config_brute_force(self):
        action = sample_action(6, 2, seed=12)
        labels = AUTOS["swap"].constant_config(6)
        tau = tau_construct(CTX, action, verify_zrho(CTX, 1, action, labels))
        # phi_v is constantly the swap (its own inverse): tau(g) = sigma(swap(g))
        assert tau.perms[0] == action.perms[1]
        assert tau.perms[1] == action.perms[0]

    def test_nielsen_config(self):
        action = sample_action(6, 2, seed=13)
        auto = AUTOS["nielsen"]
        labels = auto.constant_config(6)
        tau = tau_construct(CTX, action, verify_zrho(CTX, 2, action, labels))
        # phi_v = nielsen^-1, so tau(g) = sigma(nielsen(g))
        for i, name in ((1, "a"), (2, "b")):
            word = auto.apply(CTX.parse(name))
            assert tau.perms[i - 1] == tuple(act(action, word, v) for v in range(action.n))

    def test_precondition_error_names_vertex(self):
        action = sample_action(5, 2, seed=14)
        labels = list(AUTOS["swap"].constant_config(5))
        sym = list(labels[3])
        sym[0] = CTX.parse("a")
        labels[3] = tuple(sym)
        with pytest.raises(PreconditionError):
            tau_construct(CTX, action, verify_zrho(CTX, 1, action, tuple(labels)))

    def test_pullback_identity(self):
        action = sample_action(6, 2, seed=15)
        for name in ("swap", "inversion"):
            labels = AUTOS[name].constant_config(6)
            tau = tau_construct(CTX, action, verify_zrho(CTX, 1, action, labels))
            for v in range(6):
                phi_v = decode_E(CTX, pullback_name(CTX, action, labels, v, 2))
                lhs = pullback_name(CTX, tau, labels, v, 2)
                rhs = restrict(encode_F(CTX, phi_v), CTX.ball(2))
                assert lhs == rhs

    def test_reconstruction_round_trip(self):
        for seed, name in [(16, "swap"), (17, "nielsen"), (18, "identity")]:
            action = sample_action(6, 2, seed=seed)
            auto = AUTOS[name]
            labels = auto.constant_config(6)
            rho = auto.displacement
            tau = tau_construct(CTX, action, verify_zrho(CTX, rho, action, labels))
            assert reconstruct_sigma(CTX, tau, labels) == action

    def test_steps_that_are_not_a_bijection_are_refused(self):
        # a swaps 0 and 1; vertex 0 steps by a and vertex 1 stays, so both
        # land on 1.  No admissible configuration gets here.  tau steps by
        # the inverse of each witness of a^-1, sigma by the inverse of each
        # label's a^-1 entry
        action = FiniteAction(2, ((1, 0), (0, 1)))
        reports = tuple(AxiomsReport(True, witnesses={(-1,): w, (-2,): ()}) for w in ((-1,), ()))
        with pytest.raises(VerificationError, match="rearranged generator 1 is not a bijection"):
            tau_construct(CTX, action, Pullbacks((), reports, (0, 1)))
        labels = (((), (-1,), (), ()), ((), (), (), ()))
        with pytest.raises(VerificationError, match="reconstructed generator 1 is not a bijection"):
            reconstruct_sigma(CTX, action, labels)


class TestAutomorphismFactory:
    def test_identity_rho_one(self):
        assert AUTOS["identity"].displacement == 1

    def test_swap_rho_one(self):
        assert AUTOS["swap"].displacement == 1

    def test_nielsen_rho_two_and_zrho_pass(self):
        auto = AUTOS["nielsen"]
        assert auto.displacement == 2
        action = sample_action(8, 2, seed=19)
        verify_zrho(CTX, 2, action, auto.constant_config(8))

    def test_non_bijective_images_rejected(self):
        with pytest.raises(ConstructionError):
            Automorphism.from_names(CTX, {"a": "a", "b": "a"})
        with pytest.raises(ConstructionError):
            Automorphism.from_names(CTX, {"a": "aa", "b": "b"})

    def test_preimages_decide_like_the_collision_scan(self):
        # a free group of finite rank is Hopfian, so generator preimages alone
        # decide bijectivity; the scan oracle also looks for collisions.  An
        # accepted automorphism's inverse images undo its images, and back
        words = [CTX.format(w) for w in CTX.ball(2)]
        collisions = accepted = 0
        for a, b in itertools.product(words, repeat=2):
            images = {"a": a, "b": b}
            try:
                check_automorphism_by_scan(CTX, images)
                expected = None
            except ConstructionError as exc:
                expected = str(exc)
            try:
                auto = Automorphism.from_names(CTX, images)
                rejected = False
            except ConstructionError:
                rejected = True
            assert rejected == (expected is not None), images
            collisions += expected is not None and "collide" in expected
            if rejected:
                continue
            accepted += 1
            inverse = auto.inverse_images
            for letter in CTX.letters:
                assert auto.apply(inverse[letter]) == (letter,), images
                assert substitute(inverse, auto.images[letter]) == (letter,), images
            assert auto.displacement == max(len(w) for table in (auto.images, inverse) for w in table.values())
        assert collisions > 0 and accepted > 0

    def test_inverse_images(self):
        auto = AUTOS["nielsen"]
        assert auto.inverse_images[1] == CTX.parse("aB")
        for letter in CTX.letters:
            assert auto.apply(auto.inverse_images[letter]) == (letter,)

    def test_displacement_counts_the_longer_inverse(self):
        # no rank-2 automorphism with images in ball(3) has a longer inverse;
        # at rank 3, a -> ab, b -> bc inverts to a -> acB, b -> bC
        ctx = FreeGroupCtx(3)
        auto = Automorphism.from_names(ctx, {"a": "ab", "b": "bc", "c": "c"})
        assert [ctx.format(auto.inverse_images[i]) for i in (1, 2, 3)] == ["acB", "bC", "c"]
        assert auto.displacement == 3

    def test_bijection_validates(self):
        for auto in AUTOS.values():
            validate_bijection(CTX, bijection(auto, 4))


class TestInclusions:
    """Both directions of the encoding/constraint-system correspondence."""

    def test_encodings_of_bounded_bijections_are_admissible(self):
        # includes a genuinely non-automorphism element: the tree transposition
        t = transposition(CTX, 7, CTX.parse("a"), CTX.parse("aa"))
        assert t.rho == 2
        validate_bijection(CTX, t)
        cases = [
            (bijection(AUTOS["swap"], 7), 1),
            (bijection(AUTOS["nielsen"], 7), 2),
            (t, 2),
            (compose(CTX, bijection(AUTOS["inversion"], 8), t), 2),
        ]
        for phi, rho in cases:
            pattern = restrict(encode_E(CTX, phi), CTX.ball(rho * rho + 1))
            assert axioms_check(CTX, rho, pattern).ok
            # translates of admissible encodings stay admissible
            shifted = theta_action(CTX, CTX.parse("a"), phi)
            pattern2 = restrict(encode_E(CTX, shifted), CTX.ball(rho * rho + 1))
            assert axioms_check(CTX, rho, pattern2).ok

    def test_accepted_patterns_decode_to_bounded_bijections(self):
        t = transposition(CTX, 7, CTX.parse("a"), CTX.parse("aa"))
        pattern = restrict(encode_E(CTX, t), CTX.ball(5))
        assert axioms_check(CTX, 2, pattern).ok
        phi = decode_E(CTX, pattern)
        image = set(phi.table.values())
        assert all(h in image for h in CTX.ball(2))
        assert restrict(encode_E(CTX, phi), CTX.ball(5)) == pattern


class TestDiagnostics:
    def test_sym_distance_zero_on_equal(self):
        phi = bijection(AUTOS["swap"], 4)
        assert sym_distance(CTX, phi, phi, 3) == 0.0

    def test_sym_distance_positive_on_different(self):
        a = bijection(AUTOS["swap"], 4)
        b = bijection(AUTOS["identity"], 4)
        assert sym_distance(CTX, a, b, 3) > 0

    def test_compose_and_invert(self):
        t = transposition(CTX, 6, CTX.parse("a"), CTX.parse("aa"))
        ti = invert(CTX, t)
        assert all(ti.table[g] == t.table[g] for g in ti.table)  # involution
        comp = compose(CTX, t, t)
        assert all(comp.table[g] == g for g in comp.table)


class TestLabeledTransport:
    def test_label_transport_identity(self):
        rng = random.Random(20)
        action = sample_action(6, 2, seed=21)
        for name in ("swap", "nielsen"):
            auto = AUTOS[name]
            rho = auto.displacement
            labels = auto.constant_config(6)
            ylabels = tuple(rng.choice("pq") for _ in range(6))
            tau = tau_construct(CTX, action, verify_zrho(CTX, rho, action, labels))
            for v in range(6):
                phi_v = decode_E(CTX, pullback_name(CTX, action, labels, v, rho * rho + 1))
                lhs = pullback_name(CTX, tau, ylabels, v, 1)
                y_sigma = pullback_name(CTX, action, ylabels, v, rho)
                rhs = restrict(compose_after_inverse(phi_v, y_sigma), CTX.ball(1))
                assert lhs == rhs


MIXED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "mixed_rho1.json")


def mixed_config():
    """The checked-in rho = 1 configuration with 40 distinct radius-2
    pullback patterns over n = 200 (see ``data/make_mixed_rho1.py``)."""
    with open(MIXED, encoding="utf-8") as fh:
        config = json.load(fh)
    labels = tuple(
        tuple(CTX.parse(sym[CTX.letter_name(letter)]) for letter in CTX.letters)
        for sym in config["x"]
    )
    return FiniteAction.from_json(config["sigma"]), labels


def distinct_pullbacks(action, labels, radius):
    seen = {}
    for v in range(action.n):
        pat = pullback_name(CTX, action, labels, v, radius)
        seen.setdefault(pat.values, pat)
    return list(seen.values())


class TestBlockCode:
    """The block-code route of ``rearrange`` and ``sft-verify`` against
    per-vertex oracles."""

    def constant_cases(self):
        for seed, name in enumerate(("identity", "swap", "inversion", "nielsen")):
            auto = AUTOS[name]
            action = sample_action(7, 2, seed=30 + seed)
            yield auto.displacement, action, auto.constant_config(7)

    def test_witnesses_are_the_telescoped_inverse(self):
        cases = [(rho, pullback_name(CTX, action, labels, 0, rho * rho + 1))
                 for rho, action, labels in self.constant_cases()]
        action, labels = mixed_config()
        cases += [(1, pat) for pat in distinct_pullbacks(action, labels, 2)]
        assert len(cases) == 4 + 40
        for rho, pat in cases:
            report = axioms_check(CTX, rho, pat)
            assert report.ok and set(report.witnesses) == set(CTX.ball(rho))
            for t in CTX.letters:
                assert report.witnesses[(t,)] == pattern_inverse_eval(CTX, rho, pat, (t,))
            for h in CTX.ball(rho):
                assert report.witnesses[h] == pattern_inverse_eval(CTX, rho, pat, h)

    def test_telescope_matches_the_walk_oracle(self):
        action, labels = mixed_config()
        cases = [(1, pat) for pat in distinct_pullbacks(action, labels, 2)]
        for name in ("identity", "swap", "nielsen"):
            rho = AUTOS[name].displacement
            ball = CTX.ball(rho * rho + 1)
            cases.append((rho, Pattern(ball, list(AUTOS[name].constant_config(len(ball))))))
        assert len(cases) == 40 + 3
        compared = 0
        for rho, pat in cases:
            for depth, base in itertools.product((rho, rho * rho + 1), CTX.ball(2)):
                if not all(mul(base, w) in pat for w in CTX.ball(depth - 1)):
                    with pytest.raises(InputError):
                        telescope(CTX, pat, base, depth)
                    with pytest.raises(InputError):
                        list(telescope_walk(CTX, pat, base, depth))
                    continue
                products = telescope(CTX, pat, base, depth)
                assert products[0] == IDENTITY
                assert set(zip(CTX.ball(depth)[1:], products[1:])) == set(
                    telescope_walk(CTX, pat, base, depth)
                )
                compared += 1
        assert compared > len(cases) * 2

    def test_tau_matches_per_vertex_oracle(self):
        mixed_action, mixed_labels = mixed_config()
        cases = list(self.constant_cases()) + [(1, mixed_action, mixed_labels)]
        for rho, action, labels in cases:
            tau = tau_construct(CTX, action, verify_zrho(CTX, rho, action, labels))
            for i in range(1, CTX.rank + 1):
                expected = []
                for v in range(action.n):
                    pat = pullback_name(CTX, action, labels, v, rho * rho + 1)
                    w = pattern_inverse_eval(CTX, rho, pat, (-i,))
                    expected.append(act(action, inv(w), v))
                assert list(tau.perms[i - 1]) == expected

    def test_first_failing_vertex_is_named_when_its_pattern_repeats(self):
        # two copies of one component, corrupted alike: every failing pattern
        # of the first copy comes back in the second
        part = sample_action(6, 2, seed=40)
        action = FiniteAction(12, tuple(p + tuple(v + 6 for v in p) for p in part.perms))
        labels = list(AUTOS["swap"].constant_config(12))
        for u in (4, 10):
            sym = list(labels[u])
            sym[0] = CTX.parse("a")
            labels[u] = tuple(sym)
        labels = tuple(labels)
        pats = [pullback_name(CTX, action, labels, v, 2) for v in range(12)]
        failing = [v for v in range(12) if not axioms_check(CTX, 1, pats[v]).ok]
        first = failing[0]
        assert pats[first] == pats[first + 6]
        with pytest.raises(PreconditionError) as err:
            verify_zrho(CTX, 1, action, labels)
        assert err.value.vertex == first
        assert str(err.value).startswith(f"vertex {first}: ")

    def test_each_rearrange_run_checks_each_distinct_pattern_once(self, tmp_path, monkeypatch):
        # a memo that outlived one command would make the second run check less
        from finvariant import orbitmaps
        from finvariant.cli import main

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return axioms_check(*args, **kwargs)

        monkeypatch.setattr(orbitmaps, "axioms_check", counted)
        action, labels = mixed_config()
        distinct = len(distinct_pullbacks(action, labels, 2))
        per_run = []
        for k in range(2):
            calls.clear()
            assert main(["rearrange", "--config", MIXED, "--out", str(tmp_path / f"r{k}.txt")]) == 0
            per_run.append(len(calls))
        assert per_run == [distinct, distinct]
