"""Output checks that need no pinned reference; each returns an error string
or None.  They read only the program's output text, so they share no code with
the program they check."""

from __future__ import annotations

import json
import math
from fractions import Fraction

NO_CONFIG = "sampler found no admissible configuration"


def _lines(text: str) -> list[str]:
    return text.splitlines()


def _field(text: str, key: str) -> str | None:
    prefix = key + ": "
    for line in _lines(text):
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def f_estimate(result, n_list, alphabet_size: int, samples: int | None, rank: int) -> str | None:
    """CSV rows for every n, each mean count within [0, |A|^n]; in exact mode
    (``samples`` None) the sample count is n!^r and mean * n!^r is an integer."""
    if result.code != 0:
        return f"exit code {result.code}"
    lines = _lines(result.stdout)
    if len(lines) != 2 + len(n_list) or not lines[0].startswith("# config_hash "):
        return "csv does not have one row per n"
    if lines[1] != "n,samples,mean_count,log_mean_over_n,stderr":
        return "csv header changed"
    for n, line in zip(n_list, lines[2:]):
        cells = line.split(",")
        if len(cells) != 5 or int(cells[0]) != n:
            return f"row for n={n} missing"
        count, mean, stderr = int(cells[1]), float(cells[2]), float(cells[4])
        if not 0 <= mean <= alphabet_size**n:
            return f"n={n}: mean count {mean} outside [0, |A|^n]"
        if stderr < 0:
            return f"n={n}: negative stderr"
        if samples is None:
            total = math.factorial(n) ** rank
            if count != total:
                return f"n={n}: {count} actions averaged, expected n!^r = {total}"
            scaled = mean * total
            if abs(scaled - round(scaled)) > 1e-9 * max(1.0, scaled):
                return f"n={n}: mean * n!^r = {scaled!r} is not an integer"
        elif count != samples:
            return f"n={n}: {count} samples, expected {samples}"
    return None


def f_exact(result) -> str | None:
    if result.code != 0:
        return f"exit code {result.code}"
    if _field(result.stdout, "constancy_ok") != "yes":
        return "constancy_ok is not yes"
    if _field(result.stdout, "exact_arithmetic") != "yes":
        return "exact arithmetic was not used"
    return None


def markovize(result) -> str | None:
    if result.code != 0:
        return f"exit code {result.code}"
    if _field(result.stdout, "f_delta") != "0":
        return f"f_delta is {_field(result.stdout, 'f_delta')!r}, not 0"
    try:
        json.loads(result.out_text)
    except ValueError:
        return "super-weight file is not json"
    return None


def _frac(entry, q: int) -> Fraction | None:
    if not isinstance(entry, dict):
        return None
    value = Fraction(int(entry["num"]), int(entry["den"]))
    return value if value.denominator <= q and value >= 0 else None


def rationalize(result, q: int) -> str | None:
    """Reported distance within its bound; the weight is exact with
    denominators <= q, normalized and exactly balanced."""
    if result.code != 0:
        return f"exit code {result.code}"
    dist = _field(result.stdout, "distance")
    if dist is None:
        return "no distance line"
    value, bound = dist.split(" (bound ")
    if not float(value) <= float(bound.rstrip(")")):
        return f"distance {dist} exceeds its bound"
    try:
        data = json.loads(result.out_text)
        vertex = {a: _frac(p, q) for a, p in data["vertex"].items()}
        edges = [(e["from"], e["to"], int(e["gen"]), _frac(e["p"], q)) for e in data["edge"]]
    except (ValueError, KeyError, TypeError):
        return "rationalized weight is malformed"
    if None in vertex.values() or any(e[3] is None for e in edges):
        return f"an entry is not an exact rational with denominator <= {q}"
    if sum(vertex.values()) != 1:
        return "vertex weights do not sum to 1"
    for i in range(1, int(data["rank"]) + 1):
        for a in vertex:
            row = sum(p for x, _, g, p in edges if g == i and x == a)
            col = sum(p for _, y, g, p in edges if g == i and y == a)
            if row != vertex[a] or col != vertex[a]:
                return f"generator {i} is not balanced at {a!r}"
    return None


def rearrange(result, sampler: bool = False) -> str | None:
    """All transport identities pass.  A sampler that found nothing is an
    outcome, not a failure; a configuration it found must pass admissibility."""
    if sampler and result.code == 1 and NO_CONFIG in result.stderr and not result.stdout:
        return None
    if result.code != 0:
        return f"exit code {result.code}"
    if _field(result.stdout, "admissibility") != "PASS":
        return "admissibility did not pass"
    if _field(result.stdout, "overall") != "PASS":
        return "overall is not PASS"
    return None


def sft_verify(result, n: int) -> str | None:
    if result.code != 0:
        return f"exit code {result.code}"
    if _field(result.stdout, "overall") != "PASS":
        return "overall is not PASS"
    ok = sum(1 for line in _lines(result.stdout) if line.startswith("vertex ") and line.endswith(": OK"))
    if ok != n:
        return f"{ok} of {n} vertices reported OK"
    return None
