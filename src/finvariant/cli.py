"""Batch experiment runner.

Subcommands
-----------
f-exact       exact invariant of a weight, (1 - 2r) H(vertex) + sum_i H(edge_i)
f-estimate    finite-n growth-rate table (CSV) for a weight's neighborhood counts
rearrange     build the rearranged action from an admissible configuration and
              verify the transport identities
sft-verify    check a configuration against the orbit-change constraint system
ball          emit the shortlex word-metric ball, one word per line
weight-tools  validate | rationalize | markovize | distance

Every command is deterministic given its config (seed included); reports and
CSVs carry a hash of the resolved config for provenance.  Exit codes: 0 ok,
1 verification failure, 2 input error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction

from .actions import FiniteAction, sample_action
from .counting import Caps, f_estimate
from .errors import InputError, ResourceCapError, VerificationError, WindowError, as_int
from .freegroup import FreeGroupCtx, inv
from .orbitmaps import (
    Automorphism,
    decode_E,
    encode_F,
    pattern_inverse_eval,
    reconstruct_sigma,
    tau_construct,
    verify_zrho,
    zrho_pullbacks,
)
from .sft import SftSpec, sample_sft_config
from .shift import PatternDistribution, pullback_classes, pullback_name, read_prob, window_columns
from .weights import (
    F_value,
    Weight,
    marginal_distribution,
    markovize,
    rationalize_weight,
    weight_distance,
)

MAX_CLI_RANK = 4
MAX_CLI_RHO = 2
# a rho = 2 rearrange of a sampled action this large takes a few seconds
MAX_CLI_SAMPLED_N = 10**5


def _fmt(x) -> str:
    return f"{float(x):.15g}"


def _config_hash(config: dict) -> str:
    # threads is accepted and ignored, as a flag or a config key, so it
    # stays out of the provenance hash
    scrubbed = {k: v for k, v in config.items() if k != "threads"}
    blob = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key that it repeats, which json
    would read last-wins."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise InputError(f"a json object repeats the key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def _load_json(path: str, unique_keys: bool = True) -> dict:
    """The JSON object in a file; every file the commands read holds one.
    A repeated key in any of its objects is an input error, unless
    ``unique_keys`` is off: a marginals file can be large enough that any
    ``object_pairs_hook`` would add a third or more to reading it."""
    # open() would take an integer (or a bool) as a file descriptor and read
    # standard input for 0
    if not isinstance(path, str):
        raise InputError(f"a file path must be a string, got {path!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys if unique_keys else None)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # malformed or too deep json, or an int past int()'s digits
        raise InputError(f"{path} is not valid json: {exc}") from exc
    except InputError as exc:  # a repeated key
        raise InputError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path} must hold a json object, got {type(data).__name__}")
    return data


def _ctx_for_rank(rank: int) -> FreeGroupCtx:
    if not 1 <= rank <= MAX_CLI_RANK:
        raise InputError(f"cli supports ranks 1..{MAX_CLI_RANK}, got {rank}")
    return FreeGroupCtx(rank)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_weight(path: str) -> Weight:
    return Weight.from_json(_load_json(path))


# ---------------------------------------------------------------------------
# f-exact
# ---------------------------------------------------------------------------


def cmd_f_exact(args) -> int:
    config = _load_json(args.config) if args.config else {}
    if args.weight:
        config["weight"] = args.weight
    if "weight" not in config:
        raise InputError("f-exact needs a weight file (--weight or config)")
    config.setdefault("rho_max", MAX_CLI_RHO)
    weight = _load_weight(config["weight"])
    _ctx_for_rank(weight.rank)  # the cli's rank cap
    rho_max = as_int(config["rho_max"], "rho_max")
    if rho_max < 0:
        raise InputError(f"rho_max must be >= 0, got {rho_max}")
    if rho_max > MAX_CLI_RHO:
        raise ResourceCapError(f"cli caps the join radius at {MAX_CLI_RHO}")

    value = F_value(weight)
    lines = [f"config_hash: {_config_hash(config)}", "command: f-exact"]
    lines.append(f"alphabet_size: {len(weight.alphabet)}")
    lines.append(f"rank: {weight.rank}")
    lines.append(f"exact_arithmetic: {'yes' if weight.is_exact else 'no'}")
    lines.append(f"f_nats: {_fmt(float(value))}")
    lines.append(f"vertex_entropy: {_fmt(float(weight.entropies[0]))}")
    for i in range(1, weight.rank + 1):
        lines.append(f"edge_entropy_{i}: {_fmt(float(weight.entropies[i]))}")
    lines.append("constancy_table:")
    lines.append("rho F delta")
    # F_k is the same formula at every join radius, so each row repeats f_nats
    lines.extend(f"{rho} {_fmt(float(value))} 0" for rho in range(rho_max + 1))
    lines.append("constancy_ok: yes")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# f-estimate
# ---------------------------------------------------------------------------


def _parse_epsilon(raw) -> Fraction:
    """Epsilon as an exact rational: a JSON number is the decimal it spells,
    a string is "p/q" or a decimal, an object is read by ``read_prob``."""
    try:
        if isinstance(raw, dict):
            return read_prob(raw)
        if isinstance(raw, str):
            return Fraction(raw)
        if isinstance(raw, (int, float)) and not isinstance(raw, bool):
            return Fraction(repr(raw))
    except (InputError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed epsilon {raw!r}: {exc}") from None
    raise InputError(f"malformed epsilon {raw!r}: not a number, a rational string or {{num, den}}")


def cmd_f_estimate(args) -> int:
    if not args.config:
        raise InputError("f-estimate needs --config")
    config = _load_json(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    # the window of a marginals file is its own window_radius
    for key in ("epsilon", "n_list") + (("window",) if "weight" in config else ()):
        if key not in config:
            raise InputError(f"f-estimate config missing {key!r}")
    if ("weight" in config) == ("marginals" in config):
        raise InputError("f-estimate config needs exactly one of 'weight' and 'marginals'")
    mode = config.get("mode", "monte_carlo")
    if mode == "monte_carlo" and "seed" not in config:
        raise InputError("a seed is mandatory for randomized commands")
    config.setdefault("seed", 0)
    config.setdefault("samples", 100)
    config.setdefault("distance_mode", "window")

    if not isinstance(config["n_list"], list):
        raise InputError(f"n_list must be a list of integers, got {config['n_list']!r}")
    if "weight" in config:
        weight = _load_weight(config["weight"])
        ctx = _ctx_for_rank(weight.rank)
        window = as_int(config["window"], "window")
    else:
        data = _load_json(config["marginals"], unique_keys=False)
        ctx = _ctx_for_rank(as_int(data.get("rank", 2), "rank"))
        target = PatternDistribution.from_json(ctx, data)
        alphabet = tuple(sorted(set().union(*target.masses), key=str))
        window = len(target.window[-1])
        if "window" in config and as_int(config["window"], "window") != window:
            raise InputError(f"window {config['window']!r} differs from the marginals' window_radius {window}")
    caps = Caps(exact_actions=args.cap_exact, labelings=args.cap_labels)
    sft = None
    # only an absent key or null means no constraint system: false or {} is malformed
    if (raw := config.get("sft")) is not None:
        sft = SftSpec.from_json(ctx, _load_json(raw) if isinstance(raw, str) else raw)
    epsilon = _parse_epsilon(config["epsilon"])
    n_list = [as_int(n, "an n_list entry") for n in config["n_list"]]
    samples = as_int(config["samples"], "samples")
    seed = as_int(config["seed"], "seed")
    # a weight's marginal is walked only once the rest of the config parsed
    if "weight" in config:
        target = marginal_distribution(weight, ctx.ball(window))
        alphabet = weight.alphabet
    if mode == "monte_carlo" and len(alphabet) < 2:
        # one symbol has one labeling, so the |A|^n cap bounds no draw
        for n in n_list:
            _check_sampled_n(n)
    result = f_estimate(
        ctx,
        target,
        alphabet,
        epsilon,
        n_list,
        mode=mode,
        samples=samples,
        seed=seed,
        sft=sft,
        distance_mode=config["distance_mode"],
        caps=caps,
    )
    for warning in result.warnings:
        sys.stderr.write(f"warning: {warning}\n")
    lines = [f"# config_hash {_config_hash(config)}"]
    lines.append("n,samples,mean_count,log_mean_over_n,stderr")
    for row in result.rows:
        lines.append(
            f"{row.n},{row.samples},{_fmt(row.mean_count)},"
            f"{_fmt(row.log_mean_over_n)},{_fmt(row.stderr)}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# configuration sources shared by rearrange / sft-verify
# ---------------------------------------------------------------------------


def _check_sampled_n(n: int) -> None:
    """Raise unless an action of n vertices is small enough to sample."""
    if n > MAX_CLI_SAMPLED_N:
        raise ResourceCapError(f"cli caps a sampled action's n at {MAX_CLI_SAMPLED_N}")


def _resolve_action(ctx: FreeGroupCtx, config: dict) -> FiniteAction:
    spec = config.get("sigma") or config.get("action")
    if not isinstance(spec, dict):
        raise InputError("config must provide an action object under 'sigma' or 'action'")
    if "file" in spec or "perms" in spec:
        action = FiniteAction.from_json(_load_json(spec["file"]) if "file" in spec else spec)
        if action.rank != ctx.rank:
            raise InputError(f"the action has {action.rank} generators for rank {ctx.rank}")
        return action
    n = as_int(spec.get("n", config.get("n", 0)), "the action's n")
    if n < 1:
        raise InputError("action needs n >= 1")
    _check_sampled_n(n)
    seed = spec.get("seed", config.get("seed"))
    if seed is None:
        raise InputError("a seed is mandatory for randomized commands")
    return sample_action(n, ctx.rank, as_int(seed, "seed"))


def _decode_symbol(ctx: FreeGroupCtx, raw) -> tuple:
    if not isinstance(raw, dict):
        raise InputError(f"a configuration symbol must map letters to words, got {raw!r}")
    images = {}
    for name, word in raw.items():
        g = ctx.parse(name)
        if len(g) != 1 or g[0] in images:
            raise InputError(f"symbol keys must be distinct single letters, got {name!r}")
        images[g[0]] = ctx.parse(word)
    missing = [ctx.letter_name(letter) for letter in ctx.letters if letter not in images]
    if missing:
        raise InputError(f"symbol {raw!r} has no word for {', '.join(missing)}")
    return tuple(images[letter] for letter in ctx.letters)


def _resolve_config_labels(ctx: FreeGroupCtx, config: dict, action: FiniteAction, rho: int) -> tuple:
    spec = config.get("x") or config.get("config")
    if spec is None:
        raise InputError("config must provide a configuration under 'x' or 'config'")
    if isinstance(spec, dict) and "file" in spec:
        path = spec["file"]
        spec = _load_json(path).get("labels")
        if not isinstance(spec, list):
            raise InputError(f"{path} has no 'labels' list")
    if isinstance(spec, list):
        if len(spec) != action.n:
            raise InputError(f"configuration has {len(spec)} labels for {action.n} vertices")
        return tuple(_decode_symbol(ctx, sym) for sym in spec)
    if not isinstance(spec, dict):
        raise InputError("unrecognized configuration source")
    if "automorphism" in spec:
        source = spec["automorphism"]
        if not isinstance(source, dict) or not isinstance(source.get("images"), dict):
            raise InputError("an automorphism source needs an 'images' object")
        auto = Automorphism.from_names(ctx, source["images"])
        if auto.displacement > rho:
            raise InputError(
                f"automorphism displacement {auto.displacement} exceeds rho={rho}"
            )
        return auto.constant_config(action.n)
    if "sampler" in spec:
        sampler = spec["sampler"]
        if not isinstance(sampler, dict):
            raise InputError("a sampler source must be an object")
        seed = sampler.get("seed", config.get("seed"))
        if seed is None:
            raise InputError("a seed is mandatory for randomized commands")
        # an absent key keeps the sampler's own default
        limits = {key: as_int(sampler[key], key) for key in ("budget", "restarts") if key in sampler}
        found = sample_sft_config(ctx, rho, action, as_int(seed, "seed"), **limits)
        if found is None:
            raise VerificationError("sampler found no admissible configuration")
        return found
    raise InputError("unrecognized configuration source")


def _orbit_inputs(args, command: str):
    """The config, group, rho, action and configuration that ``rearrange``
    and ``sft-verify`` read; ``--seed`` overrides the config's ``seed``."""
    if not args.config:
        raise InputError(f"{command} needs --config")
    config = _load_json(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    rho = as_int(config.get("rho", 1), "rho")
    if rho > MAX_CLI_RHO:
        raise ResourceCapError(f"cli caps rho at {MAX_CLI_RHO}")
    ctx = _ctx_for_rank(as_int(config.get("rank", 2), "rank"))
    action = _resolve_action(ctx, config)
    labels = _resolve_config_labels(ctx, config, action, rho)
    return config, ctx, rho, action, labels


# ---------------------------------------------------------------------------
# rearrange
# ---------------------------------------------------------------------------


def cmd_rearrange(args) -> int:
    config, ctx, rho, action, labels = _orbit_inputs(args, "rearrange")
    lines = [f"config_hash: {_config_hash(config)}", "command: rearrange"]
    lines.append(f"n: {action.n}")
    lines.append(f"rho: {rho}")
    failures = []

    pullbacks = verify_zrho(ctx, rho, action, labels)  # raises naming the vertex
    lines.append("admissibility: PASS")
    tau = tau_construct(ctx, action, pullbacks)
    lines.append("tau:")
    for i, perm in enumerate(tau.perms, start=1):
        lines.append(f"  {ctx.letter_name(i)}: {list(perm)}")

    # defining formula stays multiplicative on length-2 words; psi_v(g^-1) is
    # telescoped afresh from each distinct pattern, not read from the witness
    # tables that tau was built from, and each pattern's vertices are stepped
    # through it together
    members = [[] for _ in pullbacks.patterns]
    for v, k in enumerate(pullbacks.of_vertex):
        members[k].append(v)
    multiplicative = True
    words = [w for w in ctx.ball(2) if w]
    # tau(g) is the column of g^-1
    for g, moved in zip(words, window_columns(tau, [inv(g) for g in words])):
        failing = []
        for pat, verts in zip(pullbacks.patterns, members):
            images = verts
            for letter in reversed(inv(pattern_inverse_eval(ctx, rho, pat, inv(g)))):
                perm = action.letter_perm(letter)
                images = [perm[u] for u in images]
            failing += [v for v, u in zip(verts, images) if moved[v] != u]
        if failing:
            multiplicative = False
            failures += [f"multiplicativity fails at word {ctx.format(g)}, vertex {v}" for v in sorted(failing)]
    lines.append(f"homomorphism_property: {'PASS' if multiplicative else 'FAIL'}")

    y_alphabet = config.get("y_alphabet")
    if y_alphabet is not None:
        # an empty list has no symbol to draw
        if not isinstance(y_alphabet, list) or not y_alphabet or any(isinstance(a, (list, dict)) for a in y_alphabet):
            raise InputError(f"y_alphabet must be a list of symbols, got {y_alphabet!r}")
        seed = config.get("y_seed", config.get("seed"))
        if seed is None:
            raise InputError("a seed is mandatory for randomized commands")
        rng = random.Random(as_int(seed, "y_seed"))
        ylabels = tuple(rng.choice(y_alphabet) for _ in range(action.n))

    # phi_v depends only on v's pullback pattern, so each distinct pattern is
    # decoded once.  Per pattern this keeps the companion encoding on the
    # window and, with labels y, the word phi^-1(f) for each window word f;
    # phi itself, a table on the radius rho^2+2 ball, is dropped, so memory
    # does not grow with the number of patterns.
    m = (rho * rho + 1) // rho
    window = ctx.ball(m)
    expected_keys = []
    pre_words = []
    for pat in pullbacks.patterns:
        phi = decode_E(ctx, pat)
        encoded = encode_F(ctx, phi)
        if len(encoded.domain) < len(window):
            raise WindowError(f"the companion encoding does not cover the radius-{m} window")
        # both are shortlex balls, so the window is a prefix of the encoding
        expected_keys.append(encoded.values[: len(window)])
        if y_alphabet:
            # admissibility puts phi^-1 of the window inside the radius rho*m ball
            pre_words.append(tuple(phi.inverse[f] for f in window))

    # the pullback identity is per vertex; the empirical transport compares
    # the multiset of tau's pullback names (paired with tau's y-names when
    # labels y are given) with the multiset of transported keys.  tau's names
    # are built once per class of vertices whose names agree, and each
    # distinct name or key gets one small int, so the per-vertex checks
    # compare and count ints, not nested tuples
    x_classes, x_firsts, _ = pullback_classes(ctx, tau, labels, m)
    ids: dict = {}
    x_ids = [ids.setdefault(pullback_name(ctx, tau, labels, v, m).values, len(ids)) for v in x_firsts]
    key_ids = [ids.setdefault(key, len(ids)) for key in expected_keys]
    names = [x_ids[c] for c in x_classes]
    keys = [key_ids[k] for k in pullbacks.of_vertex]
    failing = [v for v, (name, key) in enumerate(zip(names, keys)) if name != key]
    failures += [f"pullback identity fails at vertex {v}" for v in failing]
    pullback_ok = not failing
    if y_alphabet:
        y_classes, y_firsts, _ = pullback_classes(ctx, tau, ylabels, m)
        y_names = [pullback_name(ctx, tau, ylabels, v, m).values for v in y_firsts]
        # sigma(g)^-1 v for only the words g that the keys read
        read = list(set().union(*pre_words))
        at = dict(zip(read, window_columns(action, read)))
        columns = [[at[g] for g in pre] for pre in pre_words]
        names = zip(names, [y_names[c] for c in y_classes])
        keys = zip(keys, [tuple(ylabels[col[v]] for col in columns[k]) for v, k in enumerate(pullbacks.of_vertex)])
    lines.append(f"pullback_identity: {'PASS' if pullback_ok else 'FAIL'}")

    sigma_back = reconstruct_sigma(ctx, tau, labels)
    recon_ok = sigma_back == action
    if not recon_ok:
        failures.append("sigma reconstruction mismatch")
    lines.append(f"sigma_reconstruction: {'PASS' if recon_ok else 'FAIL'}")

    transport_ok = Counter(names) == Counter(keys)
    if not transport_ok:
        failures.append("empirical transport mismatch")
    lines.append(f"empirical_transport: {'PASS' if transport_ok else 'FAIL'}")

    ok = multiplicative and pullback_ok and recon_ok and transport_ok
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    for failure in failures:
        lines.append(f"failure: {failure}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# sft-verify
# ---------------------------------------------------------------------------


def cmd_sft_verify(args) -> int:
    config, ctx, rho, action, labels = _orbit_inputs(args, "sft-verify")
    lines = [f"config_hash: {_config_hash(config)}", "command: sft-verify", f"rho: {rho}"]
    ok = True
    pullbacks = zrho_pullbacks(ctx, rho, action, labels)
    for v, k in enumerate(pullbacks.of_vertex):
        report = pullbacks.reports[k]
        lines.append(f"vertex {v}: {'OK' if report.ok else 'FAIL ' + (report.reason or '')}")
        ok = ok and report.ok
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# weight-tools
# ---------------------------------------------------------------------------


WEIGHT_TOOLS_FILES = {
    "validate": ("weight",),
    "distance": ("weight", "weight2"),
    "rationalize": ("weight",),
    "markovize": ("marginals",),
}


def cmd_weight_tools(args) -> int:
    action = args.action
    for flag in WEIGHT_TOOLS_FILES[action]:
        if not getattr(args, flag):
            raise InputError(f"weight-tools {action} needs --{flag}")
    if action == "validate":
        weight = _load_weight(args.weight)
        _emit(
            f"config_hash: {_config_hash({'weight': args.weight})}\n"
            f"weight: valid ({len(weight.alphabet)} symbols, rank {weight.rank}, "
            f"exact={'yes' if weight.is_exact else 'no'})\n",
            args.out,
        )
        return 0
    if action == "distance":
        w1 = _load_weight(args.weight)
        w2 = _load_weight(args.weight2)
        _emit(f"distance: {_fmt(weight_distance(w1, w2))}\n", args.out)
        return 0
    if action == "rationalize":
        weight = _load_weight(args.weight)
        ctx = _ctx_for_rank(weight.rank)
        support = None
        if args.sft:
            support = SftSpec.from_json(ctx, _load_json(args.sft))
        result = rationalize_weight(weight, args.q, support=support)
        dist = weight_distance(weight, result)
        bound = 4 * len(weight.alphabet) ** 2 * weight.rank / args.q
        _emit(json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n", args.out)
        sys.stdout.write(f"distance: {_fmt(dist)} (bound {_fmt(bound)})\n")
        return 0
    # markovize: argparse admits only the four actions
    data = _load_json(args.marginals, unique_keys=False)
    ctx = _ctx_for_rank(as_int(data.get("rank", 2), "rank"))
    dist = PatternDistribution.from_json(ctx, data)
    weight = markovize(ctx, dist)
    value = F_value(weight)
    _emit(json.dumps(weight.to_json(), indent=2, sort_keys=True) + "\n", args.out)
    sys.stdout.write(f"f_nats: {_fmt(float(value))}\n")
    if args.weight:
        reference = _load_weight(args.weight)
        _ctx_for_rank(reference.rank)  # the cli's rank cap
        ref_value = F_value(reference)
        delta = abs(float(value) - float(ref_value))
        sys.stdout.write(f"reference_f_nats: {_fmt(float(ref_value))}\n")
        sys.stdout.write(f"f_delta: {_fmt(delta)}\n")
    return 0


# ---------------------------------------------------------------------------
# ball
# ---------------------------------------------------------------------------


def cmd_ball(args) -> int:
    ctx = _ctx_for_rank(args.rank)
    _emit("\n".join(ctx.format(w) for w in ctx.ball(args.radius)) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache  # one parser per process: parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="finvariant")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, text, func, *flags):
        """A subcommand with --config and --seed where it reads them, and --out."""
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        if "config" in flags:
            p.add_argument("--config", help="json experiment config")
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="output path (default stdout)")
        return p

    p = command("f-exact", "exact invariant of a weight", cmd_f_exact, "config")
    p.add_argument("--weight", help="weight json file")
    p = command("f-estimate", "finite-n growth-rate table", cmd_f_estimate, "config", "seed")
    p.add_argument("--threads", type=int, default=None, help="accepted and ignored: counting is serial")
    # only an absent flag means the default: 0 is a cap of 0
    p.add_argument("--cap-exact", type=int, default=Caps.exact_actions, dest="cap_exact")
    p.add_argument("--cap-labels", type=int, default=Caps.labelings, dest="cap_labels")
    command("rearrange", "rearranged action and transport checks", cmd_rearrange, "config", "seed")
    command("sft-verify", "verify an orbit-change configuration", cmd_sft_verify, "config", "seed")
    p = command("ball", "emit a word-metric ball, one word per line", cmd_ball)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--radius", type=int, required=True)
    p = command("weight-tools", "weight utilities", cmd_weight_tools)
    p.add_argument("action", choices=["validate", "rationalize", "markovize", "distance"])
    p.add_argument("--weight", help="weight json file")
    p.add_argument("--weight2", help="second weight json file (distance)")
    p.add_argument("--q", type=int, default=1000, help="denominator bound (rationalize)")
    p.add_argument("--sft", help="nearest-neighbor support spec json (rationalize)")
    p.add_argument("--marginals", help="pattern distribution json (markovize)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return 3
    except VerificationError as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 1
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
