"""The exit-code contract under fuzzing (property-based testing: Claessen and
Hughes, ICFP 2000).

README's contract is 0 success, 1 verification failure, 2 input error and 3
resource cap.  An uncaught exception would also exit 1, with a traceback, so
a crash would read as a verification failure.  The test below mutates the
valid example inputs of ``f-exact``, ``f-estimate``, ``rearrange``,
``sft-verify`` and ``weight-tools``: it deletes a key, swaps a value's JSON
type, writes huge or negative integers, NaN or infinity, repeats a key in the
raw text, or empties an alphabet or leaves one symbol in it.  Most
``f-estimate`` examples instead keep their config valid and draw ``n_list``,
``samples`` and ``seed`` from small ranges, so they reach the counting
kernel; ``f-estimate`` runs with ``--threads`` 1, 2 or 3, which it accepts
and ignores.  Every call must return 0-3 or exit 2 through argparse, raise
nothing else and finish within ``CALL_SECONDS``.  It runs derandomised, so
the examples are the same on every run.

A sampler's ``budget`` and ``restarts``, a sampled configuration's ``rho``
and a Monte Carlo ``samples`` count are the user's own work: a huge one asks
for a long run rather than causing a hang, so those keys draw their integers
from small ranges.
"""

from __future__ import annotations

import json
import math
import os
import signal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finvariant import FreeGroupCtx, Weight, marginal_distribution, sample_action
from finvariant.cli import main

from paper_objects import action_to_json, bernoulli_weight

CTX = FreeGroupCtx(2)
CALL_SECONDS = 10
EXAMPLES_PER_RUN = 1000

HALF = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2)
SKEW = bernoulli_weight({"0": 0.25, "1": 0.75}, 2)
MARGINALS = {"rank": 2, **marginal_distribution(HALF, CTX.ball(1)).to_json(CTX)}
# the golden-mean shift: no "1" next to "1" along either generator
GOLDEN = Weight.from_tables(2, ("0", "1"), {"0": 0.6, "1": 0.4},
                            {(a, b, i): p for i in (1, 2) for a, b, p in (("0", "0", 0.2), ("0", "1", 0.4), ("1", "0", 0.4))})
SFT = {"alphabet": ["0", "1"], "forbidden": [{"": "1", "a": "1"}, {"": "1", "b": "1"}], "nearest_neighbor": True}
SYMBOL = {"a": "a", "A": "A", "b": "b", "B": "B"}
SWAP = {"automorphism": {"images": {"a": "b", "b": "a"}}}
OUT = ["--out", "out.txt"]

# the valid examples: argv and the JSON files it reads, by name
EXAMPLES = {
    "f_exact": (["f-exact", "--config", "c.json"], {"c.json": {"weight": "w.json", "rho_max": 1}, "w.json": HALF.to_json()}),
    "f_estimate_mc": (
        ["f-estimate", "--config", "c.json"],
        {
            "c.json": {"weight": "w.json", "window": 0, "epsilon": 0.25, "n_list": [2, 3], "mode": "monte_carlo",
                       "samples": 3, "seed": 1, "sft": SFT},
            "w.json": SKEW.to_json(),
        },
    ),
    "f_estimate_exact": (
        ["f-estimate", "--config", "c.json"],
        {
            "c.json": {"weight": "w.json", "window": 1, "epsilon": {"num": 1, "den": 2}, "n_list": [2],
                       "mode": "exact", "distance_mode": "edge_star"},
            "w.json": HALF.to_json(),
        },
    ),
    "f_estimate_marginals": (
        ["f-estimate", "--config", "c.json"],
        {"c.json": {"marginals": "m.json", "epsilon": 1, "n_list": [2], "mode": "exact"}, "m.json": MARGINALS},
    ),
    "rearrange_automorphism": (
        ["rearrange", "--config", "c.json"],
        {"c.json": {"rank": 2, "rho": 1, "sigma": {"n": 4, "seed": 5}, "x": SWAP, "y_alphabet": ["p", "q"], "seed": 5}},
    ),
    "rearrange_files": (
        ["rearrange", "--config", "c.json"],
        {
            "c.json": {"rank": 2, "rho": 1, "sigma": {"file": "a.json"}, "x": {"file": "x.json"}},
            "a.json": action_to_json(sample_action(4, 2, 1)),
            "x.json": {"labels": [SYMBOL] * 4},
        },
    ),
    "sft_verify_sampler": (
        ["sft-verify", "--config", "c.json"],
        {"c.json": {"rank": 2, "rho": 1, "sigma": {"n": 3, "seed": 2},
                    "x": {"sampler": {"seed": 1, "budget": 50, "restarts": 2}}}},
    ),
    "sft_verify_labels": (
        ["sft-verify", "--config", "c.json"],
        {"c.json": {"rank": 2, "rho": 1, "action": {"n": 2, "perms": [[1, 0], [0, 1]]}, "x": [SYMBOL] * 2}},
    ),
    "validate": (["weight-tools", "validate", "--weight", "w.json"], {"w.json": SKEW.to_json()}),
    "distance": (
        ["weight-tools", "distance", "--weight", "w.json", "--weight2", "v.json"],
        {"w.json": HALF.to_json(), "v.json": SKEW.to_json()},
    ),
    "rationalize": (
        ["weight-tools", "rationalize", "--weight", "w.json", "--q", "20", "--sft", "s.json"],
        {"w.json": GOLDEN.to_json(), "s.json": SFT},
    ),
    "markovize": (
        ["weight-tools", "markovize", "--marginals", "m.json", "--weight", "w.json"],
        {"m.json": MARGINALS, "w.json": HALF.to_json()},
    ),
}


class Digits(int):
    """An integer written as ``self`` nines: past 4300 digits, which
    Python's int() refuses to read (and json.dumps to write)."""


WORK_KEYS = ("budget", "restarts", "rho", "samples")
HUGE = [10**400, -(10**400), 2**63, -(2**63), 10**20, Digits(5000), -1, -2, 0]
NONFINITE = [math.nan, math.inf, -math.inf]
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(-4, 4, allow_nan=False),
    st.sampled_from(["", "a", "x", "0", "1/2", "aB", "w.json"]),
)
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3), st.dictionaries(st.sampled_from(["a", "n", "p"]), SCALARS, max_size=2))


def _slots(node, path=()):
    """(path, key) of every value in a JSON tree: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path, key
        yield from _slots(value, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _dump(node, repeat=None) -> str:
    """JSON text; ``repeat`` = (path, key, text) writes that key of the object
    at path a second time, with the given value text, after its first one."""
    if isinstance(node, dict):
        pairs = []
        for key, value in node.items():
            pairs.append(f"{json.dumps(key)}: {_dump(value, _down(repeat, key))}")
            if repeat is not None and repeat[0] == () and repeat[1] == key:
                pairs.append(f"{json.dumps(key)}: {repeat[2]}")
        return "{" + ", ".join(pairs) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(_dump(value, _down(repeat, k)) for k, value in enumerate(node)) + "]"
    return "9" * node if isinstance(node, Digits) else json.dumps(node)


def _down(repeat, key):
    if repeat is None or not repeat[0] or repeat[0][0] != key:
        return None
    return (repeat[0][1:], repeat[1], repeat[2])


@st.composite
def mutated_inputs(draw):
    """(example name, argv, file texts) with one to three mutations of one
    file, or, for three in four f-estimate examples, a valid config."""
    name = draw(st.sampled_from(sorted(EXAMPLES)))
    argv, files = EXAMPLES[name]
    if name.startswith("f_estimate"):
        # the flag is accepted and ignored; drawing it keeps it accepted
        argv = argv + ["--threads", str(draw(st.sampled_from([1, 2, 3])))]
        if draw(st.integers(0, 3)):
            # a valid config: n_list, samples and seed redrawn from ranges small enough for exact mode
            config = {**files["c.json"], "n_list": draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)),
                      "samples": draw(st.integers(1, 4)), "seed": draw(st.integers(0, 10**6))}
            return name, argv, {k: json.dumps(config if k == "c.json" else v) for k, v in files.items()}
    target = draw(st.sampled_from(sorted(files)))
    data = json.loads(json.dumps(files[target]))  # a copy
    repeat = None
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(data))
        kind = draw(st.sampled_from(["delete", "retype", "huge", "nonfinite", "repeat", "alphabet"]))
        if kind == "alphabet":
            # empty or one-symbol alphabets, wherever a list of symbols sits
            found = [(p, k) for p, k in slots if k in ("alphabet", "y_alphabet") and isinstance(_at(data, p + (k,)), list)]
            if found:
                path, key = draw(st.sampled_from(found))
                old = _at(data, path + (key,))
                _at(data, path)[key] = old[:draw(st.integers(0, min(1, len(old))))]
            continue
        if not slots:
            continue
        path, key = draw(st.sampled_from(slots))
        parent = _at(data, path)
        if kind == "delete":
            del parent[key]
        elif kind == "repeat":
            if isinstance(parent, dict):
                repeat = (path, key, _dump(draw(st.one_of(st.just(parent[key]), VALUES))))
        elif kind == "huge":
            parent[key] = draw(st.integers(-2, 3) if key in WORK_KEYS else st.sampled_from(HUGE))
        elif kind == "nonfinite":
            parent[key] = draw(st.sampled_from(NONFINITE))
        else:
            parent[key] = draw(VALUES.filter(lambda v, old=parent[key]: type(v) is not type(old)))
    # a repeated key whose object a later mutation removed is written once
    return name, argv, {**{k: json.dumps(v) for k, v in files.items()}, target: _dump(data, repeat)}


class CallBudgetExceeded(Exception):
    pass


def _alarm(signum, frame):
    raise CallBudgetExceeded(f"a call ran past {CALL_SECONDS} s")


def run_case(argv, texts, workdir) -> int:
    """Write the files into ``workdir`` and run ``main`` there; the exit code,
    with argparse's exit as 2, within ``CALL_SECONDS``."""
    for file_name, text in texts.items():
        with open(os.path.join(workdir, file_name), "w", encoding="utf-8") as fh:
            fh.write(text)
    here = os.getcwd()
    previous = signal.signal(signal.SIGALRM, _alarm)
    os.chdir(workdir)
    signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
    try:
        return main(argv + OUT)
    except SystemExit as exc:
        return exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        os.chdir(here)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_every_example_is_valid(tmp_path, capsys, name):
    argv, files = EXAMPLES[name]
    assert run_case(argv, {k: json.dumps(v) for k, v in files.items()}, str(tmp_path)) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


def test_a_repeated_key_is_written_twice():
    text = _dump({"x": {"a": 1, "b": [2, {"c": 3}]}}, (("x", "b", 1), "c", "4"))
    assert text == '{"x": {"a": 1, "b": [2, {"c": 3, "c": 4}]}}'


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


@settings(max_examples=EXAMPLES_PER_RUN, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(case=mutated_inputs())
def test_every_mutated_input_keeps_the_exit_code_contract(workdir, case):
    _, argv, texts = case
    assert run_case(argv, texts, workdir) in (0, 1, 2, 3)
