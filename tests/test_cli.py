"""End-to-end command tests: outputs, exit codes, determinism."""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from finvariant import (
    FiniteAction,
    FreeGroupCtx,
    ResourceCapError,
    Weight,
    cli,
    counting,
    decode_E,
    encode_F,
    hom_count,
    marginal_distribution,
    pattern_inverse_eval,
    pullback_name,
    sample_action,
)
from finvariant.cli import main
from finvariant.freegroup import inv, mul

from paper_objects import act, bernoulli_weight
from test_weights import reversible_weight

CTX = FreeGroupCtx(2)


@pytest.fixture()
def half_weight_file(tmp_path):
    w = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2)
    path = tmp_path / "half.json"
    path.write_text(json.dumps(w.to_json()))
    return str(path)


@pytest.fixture()
def chain_weight_file(tmp_path):
    w = bernoulli_weight({"0": Fraction(1, 3), "1": Fraction(2, 3)}, 1)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(w.to_json()))
    return str(path)


class TestFExact:
    def test_bernoulli_half(self, half_weight_file, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = main(["f-exact", "--weight", half_weight_file, "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "config_hash:" in text
        f_line = next(l for l in text.splitlines() if l.startswith("f_nats:"))
        assert abs(float(f_line.split()[1]) - math.log(2)) < 1e-12
        assert "constancy_ok: yes" in text

    def test_point_mass(self, tmp_path):
        w = bernoulli_weight({"0": Fraction(1), "1": Fraction(0)}, 2)
        path = tmp_path / "pm.json"
        path.write_text(json.dumps(w.to_json()))
        out = tmp_path / "report.txt"
        assert main(["f-exact", "--weight", str(path), "--out", str(out)]) == 0
        f_line = next(l for l in out.read_text().splitlines() if l.startswith("f_nats:"))
        assert float(f_line.split()[1]) == 0.0

    def test_r1_chain_matches_entropy_rate(self, chain_weight_file, tmp_path):
        out = tmp_path / "report.txt"
        assert main(["f-exact", "--weight", chain_weight_file, "--out", str(out)]) == 0
        f_line = next(l for l in out.read_text().splitlines() if l.startswith("f_nats:"))
        expected = (1 / 3) * math.log(3) + (2 / 3) * math.log(3 / 2)
        assert abs(float(f_line.split()[1]) - expected) < 1e-12

    def test_readme_example_runs(self, tmp_path):
        # the first json block under the README's f-exact heading
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        section = text[text.index("### `f-exact`"):]
        start = section.index("```json\n") + len("```json\n")
        path = tmp_path / "weight.json"
        path.write_text(section[start:section.index("\n```", start)])
        out = tmp_path / "report.txt"
        assert main(["f-exact", "--weight", str(path), "--out", str(out)]) == 0
        assert "f_nats: 0.693147180559945" in out.read_text().splitlines()

    def test_each_entropy_is_computed_once(self, tmp_path, monkeypatch):
        from finvariant import weights

        calls = []
        real = weights.shannon_entropy

        def counted(probs):
            calls.append(1)
            return real(probs)

        monkeypatch.setattr(weights, "shannon_entropy", counted)
        w = bernoulli_weight({"0": Fraction(1, 3), "1": Fraction(2, 3)}, 2)
        path = tmp_path / "w.json"
        path.write_text(json.dumps(w.to_json()))
        out = tmp_path / "report.txt"
        assert main(["f-exact", "--weight", str(path), "--out", str(out)]) == 0
        # the vertex law and one edge law per generator
        assert len(calls) == 1 + w.rank
        lines = out.read_text().splitlines()
        rows = lines[lines.index("rho F delta") + 1 : lines.index("constancy_ok: yes")]
        assert [row.split()[0] for row in rows] == ["0", "1", "2"]
        assert all(row.split()[2] == "0" for row in rows)

    def test_float_weight_golden(self, tmp_path, monkeypatch, capsys):
        # every join radius has the same integer coefficient vector, so the
        # constancy rows repeat f_nats with delta 0
        monkeypatch.chdir(tmp_path)
        w = reversible_weight(2, ("0", "1", "2"), random.Random(5))
        (tmp_path / "float.json").write_text(json.dumps(w.to_json()))
        assert main(["f-exact", "--weight", "float.json"]) == 0
        assert capsys.readouterr().out == (
            "config_hash: be0697d90abfcbc6\n"
            "command: f-exact\n"
            "alphabet_size: 3\n"
            "rank: 2\n"
            "exact_arithmetic: no\n"
            "f_nats: 0.677239870200543\n"
            "vertex_entropy: 1.09582336253562\n"
            "edge_entropy_1: 2.15622207644215\n"
            "edge_entropy_2: 1.80848788136525\n"
            "constancy_table:\n"
            "rho F delta\n"
            "0 0.677239870200543 0\n"
            "1 0.677239870200543 0\n"
            "2 0.677239870200543 0\n"
            "constancy_ok: yes\n"
        )

    def test_invalid_weight_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rank": 2, "alphabet": ["0"], "vertex": {"0": 0.5}, "edge": []}))
        assert main(["f-exact", "--weight", str(path)]) == 2

    # a diagonal rank-1 weight {0: p, 1: 1/2}, balanced along the generator
    # whatever p is.  p = 1/2 + 10^-14 makes the vertex weights sum to
    # 1 + 10^-14, which a rational weight may not miss by; json reads NaN,
    # which once passed every test and f-exact printed a value for it.
    OFF_WEIGHTS = {
        "rational_off_by_1e-14": ({"num": 5 * 10**13 + 1, "den": 10**14}, "vertex law: probabilities sum to"),
        "nan": (float("nan"), "vertex law: probabilities sum to nan"),
    }

    @pytest.mark.parametrize("command", [["f-exact"], ["weight-tools", "validate"]])
    @pytest.mark.parametrize("case", sorted(OFF_WEIGHTS))
    def test_off_weight_exits_2(self, tmp_path, capsys, command, case):
        p, message = self.OFF_WEIGHTS[case]
        half = {"num": 1, "den": 2}
        data = {
            "rank": 1,
            "alphabet": ["0", "1"],
            "vertex": {"0": p, "1": half},
            "edge": [{"from": "0", "to": "0", "gen": 1, "p": p}, {"from": "1", "to": "1", "gen": 1, "p": half}],
        }
        path = tmp_path / "off.json"
        path.write_text(json.dumps(data))
        assert main(command + ["--weight", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("path", [0, True, ["half.json"]], ids=["zero", "true", "list"])
    def test_non_string_path_exits_2_without_reading(self, tmp_path, path):
        # open() takes an integer as a file descriptor: 0 is standard input.
        # The child runs with standard input closed, so a read cannot hang.
        (tmp_path / "cfg.json").write_text(json.dumps({"weight": path}))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = "import os, sys; os.close(0); from finvariant.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", code, "f-exact", "--config", "cfg.json"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr == f"input error: a file path must be a string, got {path!r}\n"

    def test_rho_cap_exits_3(self, half_weight_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"weight": half_weight_file, "rho_max": 9}))
        assert main(["f-exact", "--config", str(cfg)]) == 3

    def test_negative_rho_max_exits_2(self, half_weight_file, tmp_path, capsys):
        # once printed an empty constancy table and exited 1, the code of a
        # verification failure
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"weight": half_weight_file, "rho_max": -1}))
        assert main(["f-exact", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", "input error: rho_max must be >= 0, got -1\n")


class TestSymbolAlphabets:
    """A weight's vertex keys are the str forms of its symbols."""

    def test_integer_symbols_read_back(self, tmp_path, capsys):
        # the vertex keys "0" and "1" once named no symbol of [0, 1]
        w = bernoulli_weight({0: Fraction(1, 2), 1: Fraction(1, 2)}, 2)
        path = tmp_path / "ints.json"
        path.write_text(json.dumps(w.to_json()))
        assert main(["weight-tools", "validate", "--weight", str(path)]) == 0
        assert "weight: valid (2 symbols, rank 2, exact=yes)" in capsys.readouterr().out
        assert main(["f-exact", "--weight", str(path)]) == 0
        assert "f_nats: 0.693147180559945" in capsys.readouterr().out.splitlines()

    def test_symbols_that_write_alike_exit_2(self, tmp_path, capsys):
        data = {
            "rank": 1,
            "alphabet": [0, "0"],
            "vertex": {"0": 1},
            "edge": [{"from": "0", "to": "0", "gen": 1, "p": 1}],
        }
        path = tmp_path / "alike.json"
        path.write_text(json.dumps(data))
        assert main(["weight-tools", "validate", "--weight", str(path)]) == 2
        assert capsys.readouterr().err == "input error: symbols 0 and '0' both write as '0'\n"


class TestFEstimate:
    def _config(self, tmp_path, weight_file, **overrides):
        cfg = {
            "weight": weight_file,
            "window": 0,
            "epsilon": 0.1,
            "n_list": [3, 4],
            "mode": "monte_carlo",
            "samples": 40,
            "seed": 9,
        }
        cfg.update(overrides)
        path = tmp_path / "est.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_csv_shape(self, half_weight_file, tmp_path):
        cfg = self._config(tmp_path, half_weight_file)
        out = tmp_path / "rows.csv"
        assert main(["f-estimate", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config_hash ")
        assert lines[1] == "n,samples,mean_count,log_mean_over_n,stderr"
        assert len(lines) == 4

    def test_missing_seed_exits_2(self, half_weight_file, tmp_path):
        cfg_path = tmp_path / "noseed.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "weight": half_weight_file,
                    "window": 0,
                    "epsilon": 0.1,
                    "n_list": [3],
                    "mode": "monte_carlo",
                }
            )
        )
        assert main(["f-estimate", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("overrides", [
        # counts that differ from action to action
        {"samples": 2, "window": 1, "epsilon": "37/20"},
        {"samples": 5, "window": 1, "epsilon": "37/20"},
        {"window": 1, "epsilon": "37/20", "n_list": [3], "mode": "exact"},  # n!^r enumeration
        {"mode": "exact"},  # the type route
    ], ids=["mc_2_samples", "mc_5_samples", "exact_enumeration", "exact_by_type"])
    def test_thread_count_does_not_change_bytes(self, half_weight_file, tmp_path, capsys, overrides):
        cfg = self._config(tmp_path, half_weight_file, **overrides)
        printed, written = set(), set()
        for threads in ([], ["--threads", "1"], ["--threads", "2"], ["--threads", "3"], ["--threads", "100000"]):
            assert main(["f-estimate", "--config", cfg, *threads]) == 0
            printed.add(capsys.readouterr().out)
            out = tmp_path / "out.csv"
            assert main(["f-estimate", "--config", cfg, *threads, "--out", str(out)]) == 0
            written.add(out.read_bytes())
        # one csv, printed once
        assert len(printed) == 1 and len(written) == 1
        (text,) = printed
        assert text.encode() in written and text.count("# config_hash") == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_command_with_helpers_prints_its_csv_once(self, half_weight_file, tmp_path):
        # a real process, whose stdout is a block-buffered pipe, prints one
        # copy of its csv whatever --threads says
        cfg = self._config(tmp_path, half_weight_file, samples=5, window=1, epsilon="37/20")
        env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")}
        code = "import sys; from finvariant import cli; sys.exit(cli.main(sys.argv[1:]))"
        outs = [
            subprocess.run([sys.executable, "-c", code, "f-estimate", "--config", cfg, "--threads", t],
                           env=env, capture_output=True, text=True, check=True, timeout=60).stdout
            for t in ("1", "3")
        ]
        assert outs[0] == outs[1] and outs[0].count("# config_hash") == 1

    def test_threads_3_forks_nothing_on_a_long_row(self, half_weight_file, tmp_path, monkeypatch, capsys):
        # a uniform radius-1 target at n = 14 with 8 samples: a row of about
        # 0.13 s, yet even a count this long is serial
        cfg = self._config(tmp_path, half_weight_file, window=1, epsilon="5/4", n_list=[14], samples=8)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        assert main(["f-estimate", "--config", cfg]) == 0
        serial = capsys.readouterr().out
        assert main(["f-estimate", "--config", cfg, "--threads", "3"]) == 0
        assert capsys.readouterr().out == serial and forks == []

    def test_seed_flag_overrides_the_config_seed(self, half_weight_file, tmp_path, capsys):
        # --seed 7 on a seed-9 config prints what the seed-7 config prints, hash line included
        assert main(["f-estimate", "--config", self._config(tmp_path, half_weight_file), "--seed", "7"]) == 0
        flagged = capsys.readouterr().out
        assert main(["f-estimate", "--config", self._config(tmp_path, half_weight_file, seed=7)]) == 0
        assert capsys.readouterr().out == flagged
        assert main(["f-estimate", "--config", self._config(tmp_path, half_weight_file)]) == 0
        assert capsys.readouterr().out != flagged

    def test_one_sample_has_stderr_0(self, half_weight_file, tmp_path, capsys):
        assert main(["f-estimate", "--config", self._config(tmp_path, half_weight_file, samples=1)]) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[2:]]
        assert [(row[1], row[4]) for row in rows] == [("1", "0"), ("1", "0")]

    def test_a_one_symbol_alphabet_counts_at_a_large_n(self, tmp_path, capsys):
        # the search descends one vertex per level, n levels deep: far past
        # the interpreter's recursion limit
        weight = tmp_path / "one.json"
        weight.write_text(json.dumps(bernoulli_weight({"0": Fraction(1)}, 2).to_json()))
        cfg = self._config(tmp_path, str(weight), window=1, epsilon=0, n_list=[5000], samples=1)
        assert main(["f-estimate", "--config", cfg]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == ["5000,1,1,0,0"]

    def test_trivial_sft_restriction_identical_csv(self, half_weight_file, tmp_path):
        plain = self._config(tmp_path, half_weight_file)
        out1 = tmp_path / "plain.csv"
        assert main(["f-estimate", "--config", plain, "--out", str(out1)]) == 0
        restricted_cfg = json.loads(open(plain).read())
        restricted_cfg["sft"] = {
            "alphabet": ["0", "1"],
            "forbidden": [],
            "nearest_neighbor": True,
        }
        path2 = tmp_path / "est2.json"
        path2.write_text(json.dumps(restricted_cfg))
        out2 = tmp_path / "restricted.csv"
        assert main(["f-estimate", "--config", str(path2), "--out", str(out2)]) == 0
        strip = lambda b: b.split(b"\n", 1)[1]  # config hashes differ by design
        assert strip(out1.read_bytes()) == strip(out2.read_bytes())

    def test_exact_statistics_divisibility_warning(self, half_weight_file, tmp_path, capsys):
        cfg = self._config(
            tmp_path, half_weight_file, epsilon={"num": 0, "den": 1}, n_list=[3]
        )
        out = tmp_path / "zero.csv"
        assert main(["f-estimate", "--config", cfg, "--out", str(out)]) == 0
        assert "-inf" in out.read_text()
        assert "multiple" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "epsilon", [True, [1], "abc", "1/0", float("nan"), {"num": 1}], ids=repr
    )
    def test_malformed_epsilon_exits_2(self, half_weight_file, tmp_path, capsys, epsilon):
        cfg = self._config(tmp_path, half_weight_file, epsilon=epsilon)
        assert main(["f-estimate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("input error: malformed epsilon")

    # a negative window fails in ctx.ball and window 3 (2^53 patterns) on the
    # pattern cap, but only once the rest of the config has parsed
    @pytest.mark.parametrize("window", [-1, 3])
    def test_malformed_epsilon_is_reported_before_the_window_is_walked(
        self, half_weight_file, tmp_path, capsys, window
    ):
        cfg = self._config(tmp_path, half_weight_file, window=window, epsilon="x")
        assert main(["f-estimate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("input error: malformed epsilon")

    def test_json_number_epsilon_is_the_decimal_it_spells(self, half_weight_file, tmp_path, capsys):
        # n = 2, window 0: "00" and "11" sit at distance exactly 1, so
        # epsilon 1 - 10^-13 keeps only "01" and "10"; a float epsilon with
        # 1e-12 slack would count all four
        cfg = self._config(
            tmp_path, half_weight_file, epsilon=0.9999999999999, n_list=[2], mode="exact"
        )
        assert main(["f-estimate", "--config", cfg]) == 0
        assert capsys.readouterr().out.splitlines()[2] == "2,4,2,0.346573590279973,0"

    def test_float_epsilon_output_unchanged(self, tmp_path, monkeypatch, capsys):
        # stdout and config hash generated before JSON numbers were read as
        # exact decimals
        monkeypatch.chdir(tmp_path)
        w = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2)
        (tmp_path / "half.json").write_text(json.dumps(w.to_json()))
        cfg = {"weight": "half.json", "window": 1, "epsilon": 1.3, "n_list": [4, 5],
               "mode": "monte_carlo", "samples": 20, "seed": 9, "distance_mode": "edge_star"}
        (tmp_path / "est.json").write_text(json.dumps(cfg))
        assert main(["f-estimate", "--config", "est.json"]) == 0
        assert capsys.readouterr().out == (
            "# config_hash 42dbaf050cd26b57\n"
            "n,samples,mean_count,log_mean_over_n,stderr\n"
            "4,20,11.5,0.610586758842301,0.380442955126341\n"
            "5,20,18.2,0.58028431881655,0.500526039072368\n"
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"window": "abc"},
            {"n_list": 3},
            {"n_list": [0]},
            {"n_list": [-1]},
            {"sft": {"builtin": "z_rho"}},
            # every labeling is near the target, so each meets the constraint
            {"sft": {"builtin": "z_rho", "rho": 1}, "epsilon": 2},
            # checked before any row, so an empty n_list still rejects them
            {"mode": "bogus", "n_list": []},
            {"mode": "monte_carlo", "samples": -4, "n_list": []},
            {"distance_mode": "bogus"},
            {"epsilon": "-1"},
            # a window-0 marginal has no {e, s_i} pair to project on
            {"distance_mode": "edge_star"},
            {"distance_mode": "edge_star", "mode": "exact"},
        ],
        ids=["window_abc", "n_list_int", "n_zero", "n_negative", "z_rho_no_rho", "z_rho_binary",
             "mode_bogus_no_rows", "samples_negative_no_rows", "distance_mode_bogus", "epsilon_negative",
             "edge_star_window_0_monte_carlo", "edge_star_window_0_exact"],
    )
    def test_malformed_config_exits_2(self, half_weight_file, tmp_path, capsys, overrides):
        cfg = self._config(tmp_path, half_weight_file, **overrides)
        assert main(["f-estimate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("input error: ")

    def test_cap_exits_3(self, half_weight_file, tmp_path):
        cfg = self._config(tmp_path, half_weight_file, mode="exact", n_list=[6])
        assert main(["f-estimate", "--config", cfg, "--cap-exact", "100"]) == 3

    @pytest.mark.parametrize("flag", ["--cap-exact", "--cap-labels"])
    def test_a_cap_of_zero_is_a_cap(self, half_weight_file, tmp_path, capsys, flag):
        # n = 3 needs 36 actions of 8 labelings; a 0 flag once meant the default
        cfg = self._config(tmp_path, half_weight_file, mode="exact", n_list=[3])
        assert main(["f-estimate", "--config", cfg, flag, "0"]) == 3
        assert capsys.readouterr().err.startswith("resource cap: ")

    def test_the_shared_parser_keeps_no_arguments(self, half_weight_file, tmp_path, capsys):
        # one parser serves every call in a process; a flag given once must
        # not outlive its call
        assert cli.build_parser() is cli.build_parser()
        cfg = self._config(tmp_path, half_weight_file, mode="exact", n_list=[3])
        assert main(["f-estimate", "--config", cfg, "--cap-exact", "0"]) == 3
        assert main(["f-estimate", "--config", cfg]) == 0
        assert capsys.readouterr().out.splitlines()[2].startswith("3,36,")

    def test_a_mean_beyond_float_range_exits_3(self, chain_weight_file, tmp_path, capsys):
        # radius 0 at epsilon 2 counts all 2^1100 labelings of every action:
        # the mean is 2^1100, past the largest float
        cfg = self._config(tmp_path, chain_weight_file, mode="exact", n_list=[1100], epsilon=2)
        caps = ["--cap-exact", str(math.factorial(1100)), "--cap-labels", str(2**1100)]
        assert main(["f-estimate", "--config", cfg, *caps]) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource cap: ") and "n=1100" in err

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"n_list": [3.7]}, "n_list"),
            ({"window": 0.9}, "window"),
            ({"samples": True}, "samples"),
            ({"seed": "9"}, "seed"),
        ],
        ids=["n_list_float", "window_float", "samples_bool", "seed_string"],
    )
    def test_config_integers_must_be_json_integers(self, half_weight_file, tmp_path, capsys, overrides, key):
        # int() once truncated 3.7 to 3 and read "9" and true as integers
        cfg = self._config(tmp_path, half_weight_file, **overrides)
        assert main(["f-estimate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and key in err

    def test_weight_and_marginals_together_exit_2(self, half_weight_file, tmp_path, capsys):
        # the marginals file was never opened, and the weight alone was counted
        cfg = self._config(tmp_path, half_weight_file, marginals="does-not-exist.json", mode="exact", n_list=[2])
        assert main(["f-estimate", "--config", cfg]) == 2
        assert "exactly one of 'weight' and 'marginals'" in capsys.readouterr().err

    def test_epsilon_object_needs_integers(self, half_weight_file, tmp_path, capsys):
        # {"num": 3.9, "den": 10} once ran as 3/10
        cfg = self._config(tmp_path, half_weight_file, epsilon={"num": 3.9, "den": 10}, mode="exact", n_list=[3])
        assert main(["f-estimate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("input error: malformed epsilon")

    def test_a_tiny_exact_entry_keeps_its_patterns(self, tmp_path, capsys):
        # the marginal once dropped every pattern whose probability is 0.0
        # as a float, so its total missed 1 and the run exited 2
        tiny = Fraction(1, 10**400)
        w = bernoulli_weight({"0": 1 - tiny, "1": tiny}, 2)
        (tmp_path / "tiny.json").write_text(json.dumps(w.to_json()))
        cfg = self._config(
            tmp_path, str(tmp_path / "tiny.json"), window=1, epsilon="1/2", n_list=[3], mode="exact"
        )
        assert main(["f-estimate", "--config", cfg]) == 0
        assert capsys.readouterr().out.splitlines()[2] == "3,36,1,0,0"


class TestRearrange:
    def _config(self, tmp_path, images, rho, n=8, seed=5):
        cfg = {
            "rank": 2,
            "rho": rho,
            "sigma": {"n": n, "seed": seed},
            "x": {"automorphism": {"images": images}},
            "y_alphabet": ["p", "q"],
            "seed": seed,
        }
        path = tmp_path / "rearrange.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_identity_automorphism(self, tmp_path):
        cfg = self._config(tmp_path, {"a": "a", "b": "b"}, 1)
        out = tmp_path / "report.txt"
        assert main(["rearrange", "--config", cfg, "--out", str(out)]) == 0
        text = out.read_text()
        assert "overall: PASS" in text
        assert "sigma_reconstruction: PASS" in text

    def test_swap_automorphism(self, tmp_path):
        cfg = self._config(tmp_path, {"a": "b", "b": "a"}, 1)
        out = tmp_path / "report.txt"
        assert main(["rearrange", "--config", cfg, "--out", str(out)]) == 0
        assert "overall: PASS" in out.read_text()

    def test_nielsen_rho_two(self, tmp_path):
        cfg = self._config(tmp_path, {"a": "ab", "b": "b"}, 2, n=6)
        out = tmp_path / "report.txt"
        assert main(["rearrange", "--config", cfg, "--out", str(out)]) == 0
        assert "overall: PASS" in out.read_text()

    def test_corrupted_config_exits_1(self, tmp_path):
        bad_symbol = {"a": "a", "A": "a", "b": "b", "B": "B"}
        good_symbol = {"a": "a", "A": "A", "b": "b", "B": "B"}
        cfg = {
            "rank": 2,
            "rho": 1,
            "sigma": {"n": 4, "seed": 3},
            "x": [good_symbol, bad_symbol, good_symbol, good_symbol],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["rearrange", "--config", str(path)]) == 1

    def test_sampler_without_a_configuration_exits_1(self, tmp_path, capsys):
        # sample_action(4, 2, seed=0) is transitive, and the default budget
        # does not reach its constant automorphism configurations
        cfg = {"rank": 2, "rho": 1, "sigma": {"n": 4, "seed": 0}, "x": {"sampler": {"seed": 0}}}
        path = tmp_path / "sampler.json"
        path.write_text(json.dumps(cfg))
        assert main(["rearrange", "--config", str(path)]) == 1
        assert "sampler found no admissible configuration" in capsys.readouterr().err

    # reports generated before the per-vertex checks were merged into one
    # pass; they pin the tau lines, the line order and the transport verdicts
    GOLDEN = {
        "readme_swap": (
            {"a": "b", "b": "a"}, 1, 8,
            "config_hash: d96a0f1816704046\n"
            "command: rearrange\n"
            "n: 8\n"
            "rho: 1\n"
            "admissibility: PASS\n"
            "tau:\n"
            "  a: [4, 6, 5, 3, 2, 7, 1, 0]\n"
            "  b: [6, 3, 1, 0, 7, 2, 5, 4]\n"
            "homomorphism_property: PASS\n"
            "pullback_identity: PASS\n"
            "sigma_reconstruction: PASS\n"
            "empirical_transport: PASS\n"
            "overall: PASS\n",
        ),
        "nielsen": (
            {"a": "ab", "b": "b"}, 2, 6,
            "config_hash: 6d57579657f8bac2\n"
            "command: rearrange\n"
            "n: 6\n"
            "rho: 2\n"
            "admissibility: PASS\n"
            "tau:\n"
            "  a: [2, 3, 4, 1, 0, 5]\n"
            "  b: [4, 2, 5, 0, 1, 3]\n"
            "homomorphism_property: PASS\n"
            "pullback_identity: PASS\n"
            "sigma_reconstruction: PASS\n"
            "empirical_transport: PASS\n"
            "overall: PASS\n",
        ),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_report(self, tmp_path, name):
        images, rho, n, expected = self.GOLDEN[name]
        cfg = self._config(tmp_path, images, rho, n=n)
        out = tmp_path / "report.txt"
        assert main(["rearrange", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode()

    GOOD_SYMBOL = {"a": "a", "A": "A", "b": "b", "B": "B"}
    MALFORMED = {
        "labels_file_without_labels": ("rearrange", {"x": {"file": "labels.json"}}),
        "symbol_without_a_letter": ("rearrange", {"x": [{"a": "a"}, {"a": "a"}]}),
        "symbol_not_an_object": ("rearrange", {"x": [1, 2]}),
        "symbol_word_not_a_string": ("rearrange", {"x": [{**GOOD_SYMBOL, "a": 1}] * 2}),
        "automorphism_without_images": ("rearrange", {"x": {"automorphism": {}}}),
        "rho_not_an_integer": ("rearrange", {"rho": "x"}),
        "action_n_not_an_integer": ("rearrange", {"sigma": {"n": "x", "seed": 1}}),
        "sampler_not_an_object": ("rearrange", {"x": {"sampler": 5}}),
        "unrecognized_source": ("rearrange", {"x": {"foo": 1}}),
        # the config has no seed for the y labels to draw with
        "y_alphabet_without_a_seed": ("rearrange", {"y_alphabet": ["p"]}),
        "fewer_labels_than_vertices": ("sft-verify", {"x": [GOOD_SYMBOL]}),
        "more_labels_than_vertices": ("sft-verify", {"x": [GOOD_SYMBOL] * 3}),
    }

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_source_exits_2(self, tmp_path, monkeypatch, capsys, name):
        command, overrides = self.MALFORMED[name]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "labels.json").write_text(json.dumps({"symbols": []}))
        cfg = {"rank": 2, "rho": 1, "sigma": {"n": 2, "seed": 1}, "x": [self.GOOD_SYMBOL] * 2}
        (tmp_path / "cfg.json").write_text(json.dumps({**cfg, **overrides}))
        assert main([command, "--config", "cfg.json"]) == 2
        assert capsys.readouterr().err.startswith("input error: ")

    @pytest.mark.parametrize("count", [1, 3])
    def test_label_count_must_match_vertices(self, tmp_path, capsys, count):
        cfg = {"rank": 2, "rho": 1, "sigma": {"n": 2, "seed": 1}, "x": [self.GOOD_SYMBOL] * count}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["sft-verify", "--config", str(tmp_path / "cfg.json")]) == 2
        assert capsys.readouterr().err == (
            f"input error: configuration has {count} labels for 2 vertices\n"
        )

    # a rho = 1 configuration with 40 distinct radius-2 pullback patterns over
    # n = 200 (tests/data/make_mixed_rho1.py); both reports were generated
    # while every vertex was still checked and decoded on its own
    @pytest.mark.parametrize("command", ["rearrange", "sft-verify"])
    def test_many_pattern_golden_report(self, tmp_path, command):
        data = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
        out = tmp_path / "report.txt"
        assert main([command, "--config", os.path.join(data, "mixed_rho1.json"), "--out", str(out)]) == 0
        golden = os.path.join(data, f"mixed_rho1_{command.replace('-', '_')}.txt")
        with open(golden, "rb") as fh:
            assert out.read_bytes() == fh.read()

    # vertex <- the vertex whose label it copies: each copy breaks axiom 1 at
    # the vertex or a neighbour, so admissibility fails at several vertices
    BROKEN_LABELS = {17: 60, 93: 4, 150: 153, 199: 0}

    @pytest.mark.parametrize("command", ["rearrange", "sft-verify"])
    def test_failing_configuration_golden_report(self, tmp_path, capsys, command):
        # both goldens were generated while every vertex's pullback was named
        # on its own; they pin the vertex rearrange names, and the vertices
        # and the order of sft-verify's FAIL lines
        data = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
        with open(os.path.join(data, "mixed_rho1.json"), encoding="utf-8") as fh:
            cfg = json.load(fh)
        for v, source in self.BROKEN_LABELS.items():
            cfg["x"][v] = cfg["x"][source]
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "report.txt"
        assert main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 1
        stream = "stdout" if command == "sft-verify" else "stderr"
        text = out.read_text(encoding="utf-8") if stream == "stdout" else capsys.readouterr().err
        with open(os.path.join(data, f"mixed_rho1_broken_{command.replace('-', '_')}.txt"), encoding="utf-8") as fh:
            assert text == fh.read()

    def test_rho_must_be_a_json_integer(self, tmp_path, capsys):
        # true once read as rho 1
        cfg = self._config(tmp_path, {"a": "a", "b": "b"}, True)
        assert main(["rearrange", "--config", cfg]) == 2
        assert capsys.readouterr().err == "input error: rho must be an integer, got True\n"

    @staticmethod
    def _failing_report(cfg, tmp_path):
        out = tmp_path / "report.txt"
        assert main(["rearrange", "--config", cfg, "--out", str(out)]) == 1
        return out.read_text().splitlines()

    def test_perturbed_tau_fails_every_check(self, tmp_path, monkeypatch):
        real = cli.tau_construct

        def perturbed(*args):
            # swap two images of generator a: still a permutation, no longer tau
            tau = real(*args)
            first = list(tau.perms[0])
            first[0], first[1] = first[1], first[0]
            return FiniteAction(tau.n, (tuple(first),) + tau.perms[1:])

        monkeypatch.setattr(cli, "tau_construct", perturbed)
        # labels that are not constant, so tau's pullback names depend on tau
        cfg = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "mixed_rho1.json")
        lines = self._failing_report(cfg, tmp_path)
        for check in ("homomorphism_property", "pullback_identity", "sigma_reconstruction", "empirical_transport"):
            assert f"{check}: FAIL" in lines
        assert lines[lines.index("overall: FAIL") + 1 :][-2:] == [
            "failure: sigma reconstruction mismatch",
            "failure: empirical transport mismatch",
        ]
        failures = [line for line in lines if line.startswith("failure: ")]
        assert any(line.startswith("failure: multiplicativity fails at word ") for line in failures)
        assert any(line.startswith("failure: pullback identity fails at vertex ") for line in failures)

    def test_perturbed_tau_failure_lines_match_the_per_vertex_oracle(self, tmp_path, monkeypatch):
        # the per-vertex loops the class-wise checks replaced, as the oracle of
        # every multiplicativity and pullback identity line and of their order
        real = cli.tau_construct
        taus = []

        def perturbed(*args):
            tau = real(*args)
            first = list(tau.perms[0])
            first[0], first[1] = first[1], first[0]
            taus.append(FiniteAction(tau.n, (tuple(first),) + tau.perms[1:]))
            return taus[-1]

        monkeypatch.setattr(cli, "tau_construct", perturbed)
        cfg = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "mixed_rho1.json")
        failures = [line for line in self._failing_report(cfg, tmp_path) if line.startswith("failure: ")]
        with open(cfg, encoding="utf-8") as fh:
            config = json.load(fh)
        action = FiniteAction.from_json(config["sigma"])
        labels = tuple(cli._decode_symbol(CTX, sym) for sym in config["x"])
        (tau,) = taus
        pats = [pullback_name(CTX, action, labels, v, 2) for v in range(action.n)]
        expected = []
        for g in [w for w in CTX.ball(2) if w]:
            for v in range(action.n):
                step = inv(pattern_inverse_eval(CTX, 1, pats[v], inv(g)))
                if act(tau, g, v) != act(action, step, v):
                    expected.append(f"failure: multiplicativity fails at word {CTX.format(g)}, vertex {v}")
        for v in range(action.n):
            key = encode_F(CTX, decode_E(CTX, pats[v])).values[: len(CTX.ball(2))]
            if key != pullback_name(CTX, tau, labels, v, 2).values:
                expected.append(f"failure: pullback identity fails at vertex {v}")
        assert len(expected) > 2
        assert failures == expected + ["failure: sigma reconstruction mismatch", "failure: empirical transport mismatch"]

    def test_perturbed_inverse_evaluation_fails_multiplicativity_alone(self, tmp_path, monkeypatch):
        real = cli.pattern_inverse_eval
        monkeypatch.setattr(cli, "pattern_inverse_eval", lambda *args: mul(real(*args), (1,)))
        lines = self._failing_report(self._config(tmp_path, {"a": "b", "b": "a"}, 1), tmp_path)
        assert "homomorphism_property: FAIL" in lines
        for check in ("pullback_identity", "sigma_reconstruction", "empirical_transport"):
            assert f"{check}: PASS" in lines
        assert "overall: FAIL" in lines
        failures = [line for line in lines if line.startswith("failure: ")]
        assert failures and all(line.startswith("failure: multiplicativity fails at word ") for line in failures)

    # each once ran as the n = 2 identity action (exit 0)
    @pytest.mark.parametrize(
        "action, message",
        [
            ({"n": 2.5, "perms": [[0, 1], [0, 1]]}, "the action's n must be an integer, got 2.5"),
            ({"n": 2, "perms": [[1.0, 0.0], [0, 1]]}, "a perms entry must be an integer, got 1.0"),
        ],
        ids=["n", "perms"],
    )
    def test_action_file_integers_must_be_json_integers(self, tmp_path, monkeypatch, capsys, action, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "action.json").write_text(json.dumps(action))
        cfg = {"rank": 2, "rho": 1, "sigma": {"file": "action.json"}, "x": [self.GOOD_SYMBOL] * 2}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["rearrange", "--config", "cfg.json"]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_sampler_limits_default_to_the_samplers_own(self, tmp_path, monkeypatch):
        seen = []

        def recording(ctx, rho, action, seed, **limits):
            seen.append(limits)

        monkeypatch.setattr(cli, "sample_sft_config", recording)
        for sampler in ({"seed": 0}, {"seed": 0, "budget": 5, "restarts": 1}):
            cfg = {"rank": 2, "rho": 1, "sigma": {"n": 4, "seed": 0}, "x": {"sampler": sampler}}
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            assert main(["rearrange", "--config", str(tmp_path / "cfg.json")]) == 1
        assert seen == [{}, {"budget": 5, "restarts": 1}]

    @pytest.mark.parametrize("limits, key", [
        ({"budget": -5}, "budget"), ({"budget": 0}, "budget"), ({"restarts": -3}, "restarts"),
    ])
    def test_sampler_limit_below_one_exits_2(self, tmp_path, capsys, limits, key):
        # a search that cannot try a candidate is an input error, not "found nothing"
        cfg = {"rank": 2, "rho": 1, "sigma": {"n": 4, "seed": 0}, "x": {"sampler": {"seed": 0, **limits}}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["rearrange", "--config", str(tmp_path / "cfg.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and f"sampler {key} must be >= 1" in err

    def test_deterministic_reports(self, tmp_path):
        cfg = self._config(tmp_path, {"a": "b", "b": "a"}, 1)
        blobs = []
        for name in ("r1.txt", "r2.txt"):
            out = tmp_path / name
            assert main(["rearrange", "--config", cfg, "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestSftVerify:
    def test_pass_and_fail(self, tmp_path):
        good = {
            "rank": 2,
            "rho": 1,
            "action": {"n": 5, "seed": 2},
            "x": {"automorphism": {"images": {"a": "b", "b": "a"}}},
        }
        path = tmp_path / "good.json"
        path.write_text(json.dumps(good))
        out = tmp_path / "verify.txt"
        assert main(["sft-verify", "--config", str(path), "--out", str(out)]) == 0
        assert "overall: PASS" in out.read_text()

        bad_symbol = {"a": "a", "A": "a", "b": "b", "B": "B"}
        good_symbol = {"a": "a", "A": "A", "b": "b", "B": "B"}
        bad = {
            "rank": 2,
            "rho": 1,
            "action": {"n": 3, "seed": 2},
            "x": [good_symbol, good_symbol, bad_symbol],
        }
        path2 = tmp_path / "bad.json"
        path2.write_text(json.dumps(bad))
        out2 = tmp_path / "verify2.txt"
        assert main(["sft-verify", "--config", str(path2), "--out", str(out2)]) == 1
        assert "FAIL" in out2.read_text()

    SWAP = {"automorphism": {"images": {"a": "b", "b": "a"}}}

    def test_seed_flag_enters_the_config_hash(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sigma": {"n": 6}, "x": self.SWAP}))
        hashes = []
        for seed in ("1", "2"):
            assert main(["sft-verify", "--config", str(path), "--seed", seed]) == 0
            hashes.append(capsys.readouterr().out.splitlines()[0])
        assert hashes[0].startswith("config_hash: ")
        assert hashes[0] != hashes[1]

    def test_top_level_seed_samples_the_action_rearrange_samples(self, tmp_path, monkeypatch):
        from finvariant import cli

        seen = {}

        def recording(command, check):
            def run(ctx, rho, action, labels):
                seen[command] = action
                return check(ctx, rho, action, labels)

            return run

        monkeypatch.setattr(cli, "verify_zrho", recording("rearrange", cli.verify_zrho))
        monkeypatch.setattr(cli, "zrho_pullbacks", recording("sft-verify", cli.zrho_pullbacks))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sigma": {"n": 6}, "seed": 3, "x": self.SWAP}))
        for command in ("rearrange", "sft-verify"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "out.txt")]) == 0
        assert seen["sft-verify"] == seen["rearrange"] == sample_action(6, 2, 3)


class TestBall:
    def test_radius_one(self, capsys):
        assert main(["ball", "--rank", "2", "--radius", "1"]) == 0
        assert capsys.readouterr().out == "\na\nA\nb\nB\n"

    def test_cap(self):
        assert main(["ball", "--rank", "4", "--radius", "9"]) == 3


class TestEstimateFromMarginals:
    def test_marginals_source_matches_weight_source(self, half_weight_file, tmp_path):
        from finvariant import marginal_distribution

        w = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2)
        data = marginal_distribution(w, CTX.ball(0)).to_json(CTX)
        data["rank"] = 2
        marg = tmp_path / "marg.json"
        marg.write_text(json.dumps(data))
        base = {
            "window": 0,
            "epsilon": 0.1,
            "n_list": [4, 6],
            "mode": "monte_carlo",
            "samples": 30,
            "seed": 5,
        }
        out_w = tmp_path / "w.csv"
        out_m = tmp_path / "m.csv"
        cfg_w = tmp_path / "cfg_w.json"
        cfg_w.write_text(json.dumps({**base, "weight": half_weight_file}))
        cfg_m = tmp_path / "cfg_m.json"
        cfg_m.write_text(json.dumps({**base, "marginals": str(marg)}))
        assert main(["f-estimate", "--config", str(cfg_w), "--out", str(out_w)]) == 0
        assert main(["f-estimate", "--config", str(cfg_m), "--out", str(out_m)]) == 0
        strip = lambda b: b.split(b"\n", 1)[1]
        assert strip(out_w.read_bytes()) == strip(out_m.read_bytes())

    def test_edge_star_counts_at_a_multiple_of_the_pair_denominators(self, tmp_path, monkeypatch, capsys):
        # the radius-1 Bernoulli(1/2) marginal, each 1/32 written unreduced as
        # 3/96: its pair projections are over 4, so n = 4 counts at epsilon 0
        # in edge_star, and only the whole window's statistic needs 32 | n
        monkeypatch.chdir(tmp_path)
        window = ["", "a", "A", "b", "B"]
        entries = [{"pattern": dict(zip(window, format(k, "05b"))), "p": {"num": 3, "den": 96}} for k in range(32)]
        (tmp_path / "marg.json").write_text(json.dumps({"rank": 2, "window_radius": 1, "entries": entries}))
        warning = "warning: n={} is not a multiple of the target denominator lcm {}; " \
            "exact statistics are unattainable and counts will be 0\n"
        for mode, n_list, out, err in (
            ("edge_star", [4, 6], "# config_hash 1a8c015483e31ff0\n4,576,2.66666666666667,0.245207313252932,0\n"
             "6,518400,0,-inf,0\n", warning.format(6, 4)),
            ("window", [4], "# config_hash 31d1f7c500454d65\n4,576,0,-inf,0\n", warning.format(4, 32)),
        ):
            cfg = {"marginals": "marg.json", "epsilon": 0, "n_list": n_list, "mode": "exact", "distance_mode": mode}
            (tmp_path / "est.json").write_text(json.dumps(cfg))
            assert main(["f-estimate", "--config", "est.json"]) == 0
            captured = capsys.readouterr()
            header, rows = out.split("\n", 1)
            assert captured.out == f"{header}\nn,samples,mean_count,log_mean_over_n,stderr\n{rows}"
            assert captured.err == err

    def test_window_is_the_marginals_radius(self, tmp_path, monkeypatch, capsys):
        # a radius-1 marginal: "window" may be left out, and any other value
        # than 1 exits 2 instead of being ignored
        from finvariant import marginal_distribution

        monkeypatch.chdir(tmp_path)
        half = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2)
        data = marginal_distribution(half, CTX.ball(1)).to_json(CTX)
        (tmp_path / "marg.json").write_text(json.dumps({**data, "rank": 2}))
        base = {"marginals": "marg.json", "epsilon": 1.5, "n_list": [2, 3], "mode": "exact"}
        rows = {}
        for window in (None, 0, 1, 7):
            cfg = base if window is None else {**base, "window": window}
            (tmp_path / "est.json").write_text(json.dumps(cfg))
            code = main(["f-estimate", "--config", "est.json"])
            captured = capsys.readouterr()
            if window in (0, 7):
                assert code == 2
                assert f"window {window} differs from the marginals' window_radius 1" in captured.err
            else:
                assert code == 0
                rows[window] = captured.out.split("\n", 1)[1]
        assert rows[None] == rows[1]

    def test_tiny_float_marginal_counts(self, tmp_path, monkeypatch, capsys):
        # p = 1e-300 is a dyadic rational with a denominator near 2^1049;
        # stdout generated before float targets were scaled exactly
        monkeypatch.chdir(tmp_path)
        entries = [{"pattern": {"": "0"}, "p": 1e-300}, {"pattern": {"": "1"}, "p": 1.0}]
        (tmp_path / "marg.json").write_text(
            json.dumps({"rank": 2, "window_radius": 0, "entries": entries})
        )
        cfg = {"marginals": "marg.json", "window": 0, "epsilon": 0.5, "n_list": [3, 4],
               "mode": "exact", "seed": 1}
        (tmp_path / "est.json").write_text(json.dumps(cfg))
        assert main(["f-estimate", "--config", "est.json"]) == 0
        assert capsys.readouterr().out == (
            "# config_hash 46e75d782032e805\n"
            "n,samples,mean_count,log_mean_over_n,stderr\n"
            "3,36,1,0,0\n"
            "4,576,5,0.402359478108525,0\n"
        )


class TestWeightTools:
    @pytest.mark.parametrize(
        "entry",
        [
            {"pattern": {"": "0"}},
            {"p": 1.0},
            {"pattern": {"": "0"}, "p": {"num": 1}},
            {"pattern": {"": ["0"]}, "p": 1},
            {"pattern": {"": {"s": "0"}}, "p": 1},
        ],
        ids=["no_p", "no_pattern", "p_without_den", "list_symbol", "object_symbol"],
    )
    def test_malformed_marginal_entry_exits_2(self, half_weight_file, tmp_path, capsys, entry):
        marg = tmp_path / "marg.json"
        marg.write_text(json.dumps({"rank": 2, "window_radius": 0, "entries": [entry]}))
        argv = ["weight-tools", "markovize", "--marginals", str(marg), "--weight", half_weight_file]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("input error: malformed distribution entry")

    def test_repeated_pattern_exits_2(self, tmp_path, capsys):
        # three entries of 1/2, two of them one pattern: the repeat was once
        # written over the first, and the file markovized to f_nats 0, exit 0
        words = ("", "a", "A")
        entries = [{"pattern": dict(zip(words, key)), "p": 0.5} for key in ("000", "111", "000")]
        marg = tmp_path / "marg.json"
        marg.write_text(json.dumps({"rank": 1, "window_radius": 1, "entries": entries}))
        assert main(["weight-tools", "markovize", "--marginals", str(marg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: pattern {'': '0', 'a': '0', 'A': '0'} appears twice")

    def test_a_symbol_off_the_identity_exits_2(self, tmp_path, capsys):
        # "1" shows at a, a word markovize reads, but never at e
        words = ("", "a", "A")
        entries = [{"pattern": dict(zip(words, key)), "p": 0.5} for key in ("000", "010")]
        marg = tmp_path / "marg.json"
        marg.write_text(json.dumps({"rank": 1, "window_radius": 1, "entries": entries}))
        assert main(["weight-tools", "markovize", "--marginals", str(marg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: marginals are not shift-invariant: =0,a=1,A=0 shows a symbol")

    @pytest.mark.parametrize("action", ["markovize", "distance"])
    def test_missing_file_flag_exits_2(self, half_weight_file, capsys, action):
        assert main(["weight-tools", action, "--weight", half_weight_file]) == 2
        assert capsys.readouterr().err.startswith(f"input error: weight-tools {action} needs --")

    def test_validate(self, half_weight_file, capsys):
        assert main(["weight-tools", "validate", "--weight", half_weight_file]) == 0
        assert "valid" in capsys.readouterr().out

    # each once read as a valid weight (1/2 or 1/4 where the half weight has
    # it), except the zero denominator, which crashed with exit 1
    @pytest.mark.parametrize(
        "where, p",
        [
            ("vertex", {"num": 1.9, "den": 2}),
            ("vertex", {"num": "1", "den": 2}),
            ("edge", {"num": True, "den": 4}),
            ("edge", {"num": 1, "den": 0}),
            ("vertex", "0.5"),
        ],
        ids=["num_float", "num_string", "num_bool", "den_zero", "p_string"],
    )
    def test_validate_rejects_a_malformed_probability(self, half_weight_file, tmp_path, capsys, where, p):
        data = json.loads(open(half_weight_file).read())
        if where == "vertex":
            data["vertex"]["0"] = p
        else:
            data["edge"][0]["p"] = p
        (tmp_path / "bad.json").write_text(json.dumps(data))
        assert main(["weight-tools", "validate", "--weight", str(tmp_path / "bad.json")]) == 2
        assert capsys.readouterr().err.startswith("input error: ")

    def test_validate_rejects_a_boolean_probability(self, tmp_path, capsys):
        # a one-symbol weight of true entries once read as the point mass
        edge = [{"from": "0", "to": "0", "gen": i, "p": True} for i in (1, 2)]
        data = {"rank": 2, "alphabet": ["0"], "vertex": {"0": True}, "edge": edge}
        (tmp_path / "bad.json").write_text(json.dumps(data))
        assert main(["weight-tools", "validate", "--weight", str(tmp_path / "bad.json")]) == 2
        assert capsys.readouterr().err.startswith("input error: ")

    @pytest.mark.parametrize(
        "entries",
        [
            [{"pattern": {"": "0"}, "p": "0.5"}, {"pattern": {"": "1"}, "p": 0.5}],
            [{"pattern": {"": "0"}, "p": True}],
        ],
        ids=["p_string", "p_bool"],
    )
    def test_marginals_reject_a_string_or_boolean_p(self, tmp_path, monkeypatch, capsys, entries):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "marg.json").write_text(json.dumps({"rank": 2, "window_radius": 0, "entries": entries}))
        cfg = {"marginals": "marg.json", "epsilon": "1/2", "n_list": [2], "mode": "exact"}
        (tmp_path / "est.json").write_text(json.dumps(cfg))
        assert main(["f-estimate", "--config", "est.json"]) == 2
        assert capsys.readouterr().err.startswith("input error: malformed distribution entry")

    def test_validate_an_entry_beyond_float_range_exits_2(self, half_weight_file, tmp_path, capsys):
        # crashed with OverflowError (exit 1) while the message formatted the
        # entry through float()
        data = json.loads(open(half_weight_file).read())
        data["vertex"]["0"] = {"num": 10**400, "den": 1}
        (tmp_path / "huge.json").write_text(json.dumps(data))
        assert main(["weight-tools", "validate", "--weight", str(tmp_path / "huge.json")]) == 2
        total = f"{2 * 10**400 + 1}/2"
        assert capsys.readouterr().err == f"input error: vertex law: probabilities sum to {total}, not 1\n"

    def test_markovize_an_entry_beyond_float_range_exits_2(self, tmp_path, capsys):
        # crashed the same way while the message formatted the total
        entries = [{"pattern": {"": "0"}, "p": {"num": 10**400, "den": 1}}]
        (tmp_path / "marg.json").write_text(json.dumps({"rank": 2, "window_radius": 0, "entries": entries}))
        assert main(["weight-tools", "markovize", "--marginals", str(tmp_path / "marg.json")]) == 2
        assert capsys.readouterr().err == f"input error: probabilities sum to {10**400}, not 1\n"

    # each once read through int(), as rank 2 and generator 1 (exit 0)
    @pytest.mark.parametrize(
        "key, message",
        [("rank", "rank must be an integer, got 2.7"), ("gen", "an edge's gen must be an integer, got 1.9")],
    )
    def test_validate_rejects_a_non_integer(self, half_weight_file, tmp_path, capsys, key, message):
        data = json.loads(open(half_weight_file).read())
        if key == "rank":
            data["rank"] = 2.7
        for edge in data["edge"]:
            if key == "gen" and edge["gen"] == 1:
                edge["gen"] = 1.9
        (tmp_path / "bad.json").write_text(json.dumps(data))
        assert main(["weight-tools", "validate", "--weight", str(tmp_path / "bad.json")]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_markovize_rejects_a_non_integer_window_radius(self, tmp_path, capsys):
        # 0.9 once read as radius 0
        entries = [{"pattern": {"": "0"}, "p": 1}]
        (tmp_path / "marg.json").write_text(json.dumps({"rank": 2, "window_radius": 0.9, "entries": entries}))
        assert main(["weight-tools", "markovize", "--marginals", str(tmp_path / "marg.json")]) == 2
        assert capsys.readouterr().err == "input error: window_radius must be an integer, got 0.9\n"

    def test_distance(self, half_weight_file, tmp_path, capsys):
        w2 = bernoulli_weight({"0": Fraction(1, 3), "1": Fraction(2, 3)}, 2)
        p2 = tmp_path / "third.json"
        p2.write_text(json.dumps(w2.to_json()))
        assert (
            main(["weight-tools", "distance", "--weight", half_weight_file, "--weight2", str(p2)])
            == 0
        )
        out = capsys.readouterr().out
        assert out.startswith("distance: ")

    def test_distance_lines_do_not_depend_on_the_hash_seed(self, tmp_path):
        # string hashes are salted per process; the l1 sum once ran in the
        # order of a set of keys, and this weight's distance read
        # 1.23121702973811 under PYTHONHASHSEED 0 and ...812 under 1 and 2
        w = reversible_weight(2, tuple(str(k) for k in range(8)), random.Random(4))
        (tmp_path / "w.json").write_text(json.dumps(w.to_json()))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        commands = [
            ["weight-tools", "rationalize", "--weight", "w.json", "--q", "50", "--out", "r.json"],
            ["weight-tools", "distance", "--weight", "w.json", "--weight2", "r.json"],
        ]
        outputs = set()
        for seed in ("0", "1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
            runs = [
                subprocess.run([sys.executable, "-m", "finvariant.cli", *argv], cwd=tmp_path, env=env,
                               capture_output=True, text=True, timeout=60)
                for argv in commands
            ]
            assert [run.returncode for run in runs] == [0, 0]
            outputs.add(tuple(run.stdout for run in runs) + ((tmp_path / "r.json").read_text(),))
        assert len(outputs) == 1

    def test_rationalize(self, tmp_path, capsys):
        a = 1 / math.sqrt(2)
        w = bernoulli_weight({"0": a, "1": 1 - a}, 2)
        path = tmp_path / "irr.json"
        path.write_text(json.dumps(w.to_json()))
        out = tmp_path / "rational.json"
        code = main(
            ["weight-tools", "rationalize", "--weight", str(path), "--q", "1000", "--out", str(out)]
        )
        assert code == 0
        assert "distance:" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert all(isinstance(v, dict) for v in data["vertex"].values())

    @pytest.mark.parametrize(
        "half, quarter", [(0.4999999999999, 0.2499999999999), (0.5000000000001, 0.2500000000001)],
        ids=["floors_short", "floors_over"],
    )
    def test_rationalize_at_q_1e15(self, tmp_path, capsys, half, quarter):
        # balanced within PROB_TOL, so the floors of W * 10^15 miss 10^15 by
        # 100 either way, and the fractions the floats spell do not balance
        edge = [
            {"from": a, "to": b, "gen": 1, "p": p}
            for a, b, p in (("0", "0", 0.25), ("0", "1", 0.25), ("1", "0", 0.25), ("1", "1", quarter))
        ]
        weight = {"rank": 1, "alphabet": ["0", "1"], "vertex": {"0": 0.5, "1": half}, "edge": edge}
        (tmp_path / "w.json").write_text(json.dumps(weight))
        out = tmp_path / "r.json"
        argv = ["weight-tools", "rationalize", "--weight", str(tmp_path / "w.json"), "--q", str(10**15)]
        assert main(argv + ["--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert all(p["den"] <= 10**15 for p in [*data["vertex"].values(), *(e["p"] for e in data["edge"])])
        # an exact weight is built only when exactly balanced
        assert Weight.from_json(data).is_exact

    def test_rationalize_reads_nearest_neighbor_from_the_domains(self, tmp_path, capsys):
        # a float golden-mean weight: "1" never sits next to "1"
        a = 1 / math.sqrt(5)
        edge = []
        for gen in (1, 2):
            for frm, to, p in (("0", "0", 1 - 2 * a), ("0", "1", a), ("1", "0", a)):
                edge.append({"from": frm, "to": to, "gen": gen, "p": p})
        weight = {"rank": 2, "alphabet": ["0", "1"], "vertex": {"0": 1 - a, "1": a}, "edge": edge}
        (tmp_path / "w.json").write_text(json.dumps(weight))
        argv = ["weight-tools", "rationalize", "--weight", str(tmp_path / "w.json"), "--q", "100"]
        argv += ["--out", str(tmp_path / "out.json"), "--sft", str(tmp_path / "sft.json")]
        nn = [{"": "1", "a": "1"}, {"": "1", "b": "1"}]
        for forbidden in (nn, []):
            # neither file has the "nearest_neighbor" key
            (tmp_path / "sft.json").write_text(json.dumps({"alphabet": ["0", "1"], "forbidden": forbidden}))
            assert main(argv) == 0
            out = json.loads((tmp_path / "out.json").read_text())
            assert not any(e["from"] == e["to"] == "1" and e["p"]["num"] for e in out["edge"])
        capsys.readouterr()
        (tmp_path / "sft.json").write_text(json.dumps({"alphabet": ["0", "1"], "forbidden": [{"": "1", "A": "1"}]}))
        assert main(argv) == 2
        assert "nearest-neighbor" in capsys.readouterr().err

    def test_markovize_exact_marginal_off_by_1e_10_exits_2(self, tmp_path, capsys):
        # move 10^-10 of mass between two patterns that differ only at a:
        # the total stays exactly 1, but the law at a no longer matches the
        # law at e, so the super-weight does not balance exactly
        from finvariant import PatternDistribution, marginal_distribution

        half = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2)
        probs = dict(marginal_distribution(half, CTX.ball(1)).probs)
        a_col = CTX.ball(1).index(CTX.parse("a"))
        key = next(k for k in probs if k[a_col] == "0")
        moved = key[:a_col] + ("1",) + key[a_col + 1:]
        probs[key] -= Fraction(1, 10**10)
        probs[moved] += Fraction(1, 10**10)
        data = PatternDistribution(CTX.ball(1), probs).to_json(CTX)
        marg = tmp_path / "marg.json"
        marg.write_text(json.dumps({**data, "rank": 2}))
        assert main(["weight-tools", "markovize", "--marginals", str(marg)]) == 2
        assert "marginals are not projection-consistent" in capsys.readouterr().err

    def test_markovize_reports_f_match(self, half_weight_file, tmp_path, capsys):
        from finvariant import marginal_distribution

        w = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2)
        dist = marginal_distribution(w, CTX.ball(2))
        data = dist.to_json(CTX)
        data["rank"] = 2
        marg = tmp_path / "marg.json"
        marg.write_text(json.dumps(data))
        out = tmp_path / "super.json"
        code = main(
            [
                "weight-tools",
                "markovize",
                "--marginals",
                str(marg),
                "--weight",
                half_weight_file,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        # markovization is a conjugacy: the two values are the same prime-log combination
        assert "f_delta: 0" in captured.splitlines()

    def test_markovize_golden_mean_bytes(self, tmp_path, capsys):
        # golden-mean weight: "1" never sits next to "1"; the expected
        # super-weight and stdout were generated before markovize cached its
        # symbol names and the shift json parsed each window word once
        from finvariant import Weight, marginal_distribution

        third = Fraction(1, 3)
        edge = {}
        for i in (1, 2):
            edge.update({("0", "0", i): third, ("0", "1", i): third, ("1", "0", i): third})
        w = Weight.from_tables(2, ("0", "1"), {"0": 2 * third, "1": third}, edge)
        weight_path = tmp_path / "golden.json"
        weight_path.write_text(json.dumps(w.to_json()))
        data = marginal_distribution(w, CTX.ball(2)).to_json(CTX)
        data["rank"] = 2
        marg = tmp_path / "marg.json"
        marg.write_text(json.dumps(data))
        out = tmp_path / "super.json"
        argv = ["weight-tools", "markovize", "--marginals", str(marg), "--weight", str(weight_path)]
        assert main(argv + ["--out", str(out)]) == 0
        golden = os.path.join(os.path.dirname(__file__), "data", "markovize_golden_mean_super.json")
        with open(golden, "rb") as fh:
            assert out.read_bytes() == fh.read()
        assert capsys.readouterr().out == (
            "f_nats: 0.287682072451781\n"
            "reference_f_nats: 0.287682072451781\n"
            "f_delta: 0\n"
        )


class TestFlags:
    """Each subcommand takes only the flags it reads."""

    FLAGS = {
        "f-exact": {"--config", "--weight", "--out"},
        "f-estimate": {"--config", "--seed", "--threads", "--cap-exact", "--cap-labels", "--out"},
        "rearrange": {"--config", "--seed", "--out"},
        "sft-verify": {"--config", "--seed", "--out"},
        "ball": {"--rank", "--radius", "--out"},
        "weight-tools": {"action", "--weight", "--weight2", "--q", "--sft", "--marginals", "--out"},
    }
    # a complete command line for each, which parses before any file is read
    ARGV = {
        "f-exact": ["f-exact", "--weight", "w.json"],
        "rearrange": ["rearrange", "--config", "c.json"],
        "sft-verify": ["sft-verify", "--config", "c.json"],
        "ball": ["ball", "--radius", "1"],
        "weight-tools": ["weight-tools", "validate", "--weight", "w.json"],
    }
    SHARED = {"--config", "--seed", "--threads", "--cap-exact", "--cap-labels", "--out"}

    def test_each_command_has_its_flags(self):
        commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
        for name, parser in commands.items():
            names = {a.option_strings[0] if a.option_strings else a.dest for a in parser._actions}
            assert names - {"-h"} == self.FLAGS[name], name
        assert sum(len(flags) for flags in self.FLAGS.values()) == 25

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_a_flag_the_command_does_not_read_exits_2(self, capsys, command):
        for flag in sorted(self.SHARED - self.FLAGS[command]):
            with pytest.raises(SystemExit) as exc:
                main(self.ARGV[command] + [flag, "1"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["f-estimate", "rearrange", "sft-verify"])
    def test_a_command_without_its_config_exits_2(self, capsys, command):
        assert main([command]) == 2
        assert capsys.readouterr().err == f"input error: {command} needs --config\n"


class TestMalformedJsonShapes:
    """Each input below once escaped as a traceback with exit 1, the code of a
    verification failure, unless its comment says otherwise; a malformed
    input exits 2."""

    SYMBOL = {"a": "a", "A": "A", "b": "b", "B": "B"}
    REARRANGE = {"rank": 2, "rho": 1, "sigma": {"n": 2, "seed": 1}, "x": [SYMBOL] * 2, "seed": 3}
    MARGINALS = {"rank": 2, "window_radius": 1, "entries": []}
    ESTIMATE = {"window": 0, "epsilon": 0.1, "n_list": [3], "mode": "exact"}
    VALIDATE = ["weight-tools", "validate", "--weight", "w.json"]
    MARKOVIZE = ["weight-tools", "markovize", "--marginals", "m.json"]
    RATIONALIZE = ["weight-tools", "rationalize", "--weight", "w.json"]
    ESTIMATE_ARGV = ["f-estimate", "--config", "c.json"]
    ONE_SYMBOL = {"rank": 2, "alphabet": ["0"], "vertex": {"0": 1},
                  "edge": [{"from": "0", "to": "0", "gen": i, "p": 1} for i in (1, 2)]}
    CASES = {
        "weight_vertex_list": (VALIDATE, {"w.json": {"vertex": []}}),
        "weight_alphabet_holds_a_list": (VALIDATE, {"w.json": {"alphabet": [["0"], "1"]}}),
        # a string once read as the list of its characters
        "weight_alphabet_a_string": (VALIDATE, {"w.json": {"alphabet": "01"}}),
        "marginals_rank_not_an_integer": (MARKOVIZE, {"m.json": {**MARGINALS, "rank": "x"}}),
        "marginals_radius_not_an_integer": (MARKOVIZE, {"m.json": {**MARGINALS, "window_radius": "x"}}),
        "marginals_array_markovize": (MARKOVIZE, {"m.json": []}),
        "marginals_array_estimate": (
            ["f-estimate", "--config", "c.json"],
            {"c.json": {**ESTIMATE, "marginals": "m.json"}, "m.json": []},
        ),
        "marginals_entries_not_a_list": (MARKOVIZE, {"m.json": {**MARGINALS, "entries": 5}}),
        "sft_forbidden_entry_a_list": (
            ["f-estimate", "--config", "c.json"],
            {"c.json": {**ESTIMATE, "weight": "w.json", "sft": {"alphabet": ["0", "1"], "forbidden": [["0"]]}}},
        ),
        "sft_alphabet_holds_a_list": (
            ["f-estimate", "--config", "c.json"],
            {"c.json": {**ESTIMATE, "weight": "w.json", "sft": {"alphabet": [["0"], "1"], "forbidden": []}}},
        ),
        "sft_alphabet_a_string": (
            ["f-estimate", "--config", "c.json"],
            {"c.json": {**ESTIMATE, "weight": "w.json", "sft": {"alphabet": "01", "forbidden": []}}},
        ),
        "sft_forbidden_value_a_list": (
            ["f-estimate", "--config", "c.json"],
            {"c.json": {**ESTIMATE, "weight": "w.json", "sft": {
                "alphabet": ["0", "1"], "forbidden": [{"": ["0"], "a": "1"}], "nearest_neighbor": True}}},
        ),
        "y_alphabet_not_a_list": (["rearrange", "--config", "c.json"], {"c.json": {**REARRANGE, "y_alphabet": 5}}),
        "y_seed_not_an_integer": (
            ["rearrange", "--config", "c.json"],
            {"c.json": {**REARRANGE, "y_alphabet": ["p"], "y_seed": "x"}},
        ),
        "rearrange_config_array": (["rearrange", "--config", "c.json"], {"c.json": [REARRANGE]}),
        "sft_verify_config_array": (["sft-verify", "--config", "c.json"], {"c.json": [REARRANGE]}),
        # a falsy value was once read as an absent key and exited 0: counted
        # with no constraint system, or rearranged with no y labels
        "sft_false": (ESTIMATE_ARGV, {"c.json": {**ESTIMATE, "weight": "w.json", "sft": False}}),
        "sft_zero": (ESTIMATE_ARGV, {"c.json": {**ESTIMATE, "weight": "w.json", "sft": 0}}),
        "sft_empty_string": (ESTIMATE_ARGV, {"c.json": {**ESTIMATE, "weight": "w.json", "sft": ""}}),
        "sft_empty_list": (ESTIMATE_ARGV, {"c.json": {**ESTIMATE, "weight": "w.json", "sft": []}}),
        "sft_empty_object": (ESTIMATE_ARGV, {"c.json": {**ESTIMATE, "weight": "w.json", "sft": {}}}),
        "y_alphabet_zero": (["rearrange", "--config", "c.json"], {"c.json": {**REARRANGE, "y_alphabet": 0}}),
        "y_alphabet_empty_string": (["rearrange", "--config", "c.json"], {"c.json": {**REARRANGE, "y_alphabet": ""}}),
        "y_alphabet_false": (["rearrange", "--config", "c.json"], {"c.json": {**REARRANGE, "y_alphabet": False}}),
        "y_alphabet_empty_object": (["rearrange", "--config", "c.json"], {"c.json": {**REARRANGE, "y_alphabet": {}}}),
        # an empty list has no symbol to draw from
        "y_alphabet_empty_list": (["rearrange", "--config", "c.json"], {"c.json": {**REARRANGE, "y_alphabet": []}}),
        # each exited 2 already, but no test ran it
        "weight_rank_zero": (VALIDATE, {"w.json": {"rank": 0}}),
        "marginals_radius_zero": (MARKOVIZE, {"m.json": {**MARGINALS, "window_radius": 0}}),
        "rationalize_q_zero": (RATIONALIZE + ["--q", "0"], {}),
        # the half weight is positive on the forbidden edge 0 -> 1
        "rationalize_off_its_sft": (
            RATIONALIZE + ["--sft", "s.json"],
            {"s.json": {"alphabet": ["0", "1"], "forbidden": [{"": "0", "a": "1"}]}},
        ),
        "distance_across_alphabets": (
            ["weight-tools", "distance", "--weight", "w.json", "--weight2", "v.json"],
            {"v.json": ONE_SYMBOL},
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_malformed_shape_exits_2(self, tmp_path, monkeypatch, capsys, name):
        argv, files = self.CASES[name]
        monkeypatch.chdir(tmp_path)
        weight = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2).to_json()
        files = {"w.json": {}, **files}
        for file_name, data in files.items():
            if file_name == "w.json":
                data = {**weight, **data}
            (tmp_path / file_name).write_text(json.dumps(data))
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("input error: ")

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        # json.load raises RecursionError, which is not a JSONDecodeError
        path = tmp_path / "w.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["weight-tools", "validate", "--weight", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {path} is not valid json: maximum recursion depth")

    @pytest.mark.parametrize(
        "rank, perms",
        [(2, [[1, 0]]), (1, [[1, 0], [0, 1]])],
        ids=["too_few_generators", "too_many_generators"],
    )
    def test_action_rank_must_match(self, tmp_path, capsys, rank, perms):
        symbol = {"a": "a", "A": "A", "b": "b", "B": "B"} if rank == 2 else {"a": "a", "A": "A"}
        cfg = {"rank": rank, "rho": 1, "sigma": {"n": 2, "perms": perms}, "x": [symbol] * 2}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["sft-verify", "--config", str(tmp_path / "cfg.json")]) == 2
        assert capsys.readouterr().err == (
            f"input error: the action has {len(perms)} generators for rank {rank}\n"
        )


class TestKeysSpelledTwice:
    """A key spelled twice was once read last-wins, and a non-boolean
    ``nearest_neighbor`` through ``bool()``; these inputs exited 0, or 2 with
    a message about something else.  Each exits 2 and names its fault."""

    SYMBOL = {"a": "a", "A": "A", "b": "b", "B": "B"}
    ESTIMATE = {"window": 0, "epsilon": 1, "n_list": [3], "mode": "exact", "weight": "w.json"}
    CASES = {
        # "" and "bB" both spell e; the pattern once collapsed to {e: "0", a: "1"}
        "sft_pattern_word_spelled_twice": (
            ["f-estimate", "--config", "c.json"],
            {**ESTIMATE, "sft": {"alphabet": ["0", "1"], "forbidden": [{"": "1", "a": "1", "bB": "0"}]}},
            "pattern domain has repeated words",
        ),
        "sft_nearest_neighbor_a_string": (
            ["f-estimate", "--config", "c.json"],
            {**ESTIMATE, "sft": {"alphabet": ["0", "1"], "forbidden": [{"": "1", "ab": "1"}],
                                 "nearest_neighbor": "false"}},
            "nearest_neighbor must be true or false, got 'false'",
        ),
        # "aAa" spells a; the images once read as the identity automorphism
        "automorphism_generator_spelled_twice": (
            ["rearrange", "--config", "c.json"],
            {"rank": 2, "rho": 1, "sigma": {"n": 4, "seed": 3}, "seed": 3,
             "x": {"automorphism": {"images": {"a": "ab", "aAa": "a", "b": "b"}}}},
            "image keys must be distinct single generators, got 'aAa'",
        ),
        # the symbol once read with a -> a
        "symbol_letter_spelled_twice": (
            ["rearrange", "--config", "c.json"],
            {"rank": 2, "rho": 1, "sigma": {"n": 2, "seed": 1}, "seed": 3,
             "x": [{"a": "b", "aAa": "a", "A": "A", "b": "b", "B": "B"}, SYMBOL]},
            "symbol keys must be distinct single letters, got 'aAa'",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_exits_2(self, tmp_path, monkeypatch, capsys, name):
        argv, cfg, message = self.CASES[name]
        monkeypatch.chdir(tmp_path)
        weight = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2).to_json()
        (tmp_path / "w.json").write_text(json.dumps(weight))
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and message in err


class TestRepeatedJsonKeys:
    """A JSON object that repeats a key was once read last-wins: the
    automorphism below ran as the identity and printed ``overall: PASS``.
    Every file but a marginals file now exits 2 naming the key."""

    SYMBOL = '{"a": "a", "A": "A", "b": "b", "B": "B"}'
    SAMPLED = '"rank": 2, "rho": 1, "sigma": {"n": 4, "seed": 3}, "seed": 3'
    CASES = {
        "automorphism_images": (
            ["rearrange", "--config", "c.json"],
            '{' + SAMPLED + ', "x": {"automorphism": {"images": {"a": "ab", "a": "a", "b": "b"}}}}',
        ),
        "inline_symbol": (
            ["sft-verify", "--config", "c.json"],
            '{' + SAMPLED + ', "x": [' + ", ".join(['{"a": "b", "a": "a", "A": "A", "b": "b", "B": "B"}']
                                                 + [SYMBOL] * 3) + "]}",
        ),
        "weight_file": (["f-exact", "--weight", "w.json"], None),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_exits_2(self, tmp_path, monkeypatch, capsys, name):
        argv, text = self.CASES[name]
        monkeypatch.chdir(tmp_path)
        weight = json.dumps(bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2).to_json())
        if text is None:
            # the same value twice: read last-wins, the weight is unchanged
            weight, text = weight.replace('"rank": 2', '"rank": 2, "rank": 2', 1), "{}"
            assert weight.count('"rank"') == 2
        (tmp_path / "w.json").write_text(weight)
        (tmp_path / "c.json").write_text(text)
        assert main(argv) == 2
        path = argv[-1]
        key = "rank" if name == "weight_file" else "a"
        assert capsys.readouterr().err == f"input error: {path}: a json object repeats the key {key!r}\n"

    def test_the_automorphism_exits_0_once_spelled_once(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _, text = self.CASES["automorphism_images"]
        (tmp_path / "c.json").write_text(text.replace('"a": "ab", ', ""))
        assert main(["rearrange", "--config", "c.json"]) == 0

    def test_a_marginals_file_is_read_without_the_check(self, tmp_path, monkeypatch, capsys):
        # PatternDistribution.from_json checks a marginal's entries, and a
        # marginals file can be megabytes, so it is read by plain json.load
        monkeypatch.chdir(tmp_path)
        w = bernoulli_weight({"0": Fraction(1, 2), "1": Fraction(1, 2)}, 2)
        data = {"rank": 2, **marginal_distribution(w, CTX.ball(1)).to_json(CTX)}
        text = json.dumps(data).replace('"rank": 2', '"rank": 2, "rank": 2', 1)
        (tmp_path / "m.json").write_text(text)
        assert main(["weight-tools", "markovize", "--marginals", "m.json", "--out", "w.json"]) == 0
        assert capsys.readouterr().out.startswith("f_nats: ")
        cfg = {"marginals": "m.json", "epsilon": 1, "n_list": [2], "mode": "exact"}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["f-estimate", "--config", "c.json"]) == 0


class TestSampledActionCap:
    """A sampled action's n once reached ``sample_action`` uncapped: 10^400
    crashed with an OverflowError traceback (exit 1), and a large finite n
    ran as long as its size asked.  Both exit 3 before sampling."""

    @pytest.mark.parametrize("command", ["rearrange", "sft-verify"])
    @pytest.mark.parametrize("n", [10**400, cli.MAX_CLI_SAMPLED_N + 1], ids=["10^400", "cap+1"])
    def test_exits_3(self, tmp_path, capsys, command, n):
        cfg = {"rank": 2, "rho": 1, "sigma": {"n": n, "seed": 1},
               "x": {"automorphism": {"images": {"a": "b", "b": "a"}}}}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main([command, "--config", str(tmp_path / "c.json")]) == 3
        assert capsys.readouterr().err == f"resource cap: cli caps a sampled action's n at {cli.MAX_CLI_SAMPLED_N}\n"

    def test_the_cap_itself_is_sampled(self, monkeypatch):
        # the check sits before the draw: at the cap the action is sampled
        drawn = []
        monkeypatch.setattr(cli, "sample_action", lambda n, rank, seed: drawn.append(n) or sample_action(2, rank, seed))
        spec = {"sigma": {"n": cli.MAX_CLI_SAMPLED_N, "seed": 1}}
        assert cli._resolve_action(CTX, spec).n == 2
        assert drawn == [cli.MAX_CLI_SAMPLED_N]

    @pytest.mark.parametrize("n", [cli.MAX_CLI_SAMPLED_N + 1, 10**12], ids=["cap+1", "10^12"])
    def test_a_one_symbol_monte_carlo_n_exits_3(self, tmp_path, monkeypatch, capsys, n):
        # one symbol has one labeling, so the |A|^n cap never stopped these:
        # n = 10^6 counted for about 10 s, and 10^12 ran out of memory drawing its action
        monkeypatch.setattr(counting, "sample_action", lambda *args: pytest.fail("an action was drawn"))
        weight = tmp_path / "one.json"
        weight.write_text(json.dumps(bernoulli_weight({"0": Fraction(1)}, 2).to_json()))
        cfg = {"weight": str(weight), "window": 1, "epsilon": 0, "n_list": [n], "samples": 1, "seed": 0}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        t0 = time.perf_counter()
        assert main(["f-estimate", "--config", str(tmp_path / "c.json")]) == 3
        assert time.perf_counter() - t0 < 0.1
        assert capsys.readouterr().err == f"resource cap: cli caps a sampled action's n at {cli.MAX_CLI_SAMPLED_N}\n"


class TestCapsDecidedBeforeBuilding:
    """A cap once built, or printed, the number it bounds: exact mode at
    n = 1000 printed n!^r past Python's int-to-str limit (exit 1), n = 10^400
    overflowed ``math.factorial`` (exit 1), Monte Carlo at n = 10^6 drew a
    million-vertex action before the |A|^n message crashed (exit 1), and
    ``ball --radius 10^7`` computed 3^(10^7) before exiting 3.  Each exits 3
    within a second, naming n, r, |A| or the radius."""

    def _run(self, tmp_path, weight_file, n, mode):
        cfg = {"weight": weight_file, "window": 0, "epsilon": {"num": 1, "den": 2}, "n_list": [n], "mode": mode,
               "samples": 1, "seed": 0}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        t0 = time.perf_counter()
        code = main(["f-estimate", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o.csv")])
        assert time.perf_counter() - t0 < 1.0
        return code

    @pytest.mark.parametrize("n", [800, 1000, 10**400], ids=["800", "1000", "10^400"])
    def test_exact_mode(self, half_weight_file, tmp_path, capsys, n):
        assert self._run(tmp_path, half_weight_file, n, "exact") == 3
        assert capsys.readouterr().err == f"resource cap: n!^r homomorphisms at n={n}, r=2 exceed cap 1000000\n"

    @pytest.mark.parametrize("n", [10**5, 10**6, 10**400], ids=["10^5", "10^6", "10^400"])
    def test_monte_carlo_draws_no_action(self, half_weight_file, tmp_path, monkeypatch, capsys, n):
        monkeypatch.setattr(counting, "sample_action", lambda *args: pytest.fail("an action was drawn"))
        assert self._run(tmp_path, half_weight_file, n, "monte_carlo") == 3
        assert capsys.readouterr().err == f"resource cap: |A|^n labelings at |A|=2, n={n} exceed cap 10000000\n"

    def test_the_caps_admit_what_they_bound(self):
        # the running product and the bit-length test stop at the cap, not before
        assert hom_count(3, 2, 36) == 36
        with pytest.raises(ResourceCapError):
            hom_count(3, 2, 35)
        caps = counting.Caps(labelings=2**23)
        counting._check_labelings(23, "01", caps)
        for n in (24, 10**400):
            with pytest.raises(ResourceCapError):
                counting._check_labelings(n, "01", caps)

    def test_a_window_past_the_pattern_cap_exits_3(self, half_weight_file, tmp_path, capsys):
        # the radius-5 ball holds 485 words, so its marginal would list 2^485 patterns
        cfg = {"weight": half_weight_file, "window": 5, "epsilon": 1, "n_list": [2], "mode": "exact"}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["f-estimate", "--config", str(tmp_path / "c.json")]) == 3
        assert capsys.readouterr().err == "resource cap: 2^485 window patterns exceed cap 4194304\n"

    def test_ball(self, capsys):
        t0 = time.perf_counter()
        assert main(["ball", "--rank", "2", "--radius", "10000000"]) == 3
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err == "resource cap: ball of radius 10000000 may exceed five million letters\n"

    # at rank 1 radius 499999 is 999 999 words, but 2.5e11 letters: under a
    # cap on words alone it once ran until the out-of-memory killer stopped it
    LETTERS = "resource cap: ball of radius 499999 may exceed five million letters\n"

    def test_a_rank_1_ball_is_capped_by_its_letters(self, capsys):
        t0 = time.perf_counter()
        assert main(["ball", "--rank", "1", "--radius", "499999"]) == 3
        assert time.perf_counter() - t0 < 0.1
        assert capsys.readouterr().err == self.LETTERS

    def test_a_rank_1_window_is_capped_by_its_letters(self, chain_weight_file, tmp_path, capsys):
        cfg = {"weight": chain_weight_file, "window": 499999, "epsilon": 1, "n_list": [2], "seed": 0}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        t0 = time.perf_counter()
        assert main(["f-estimate", "--config", str(tmp_path / "c.json")]) == 3
        assert time.perf_counter() - t0 < 0.1
        assert capsys.readouterr().err == self.LETTERS

    @pytest.mark.parametrize("command", ["f-estimate", "markovize"])
    def test_a_rank_1_marginals_window_is_capped_by_its_letters(self, tmp_path, capsys, command):
        marg = {"rank": 1, "window_radius": 499999, "entries": []}
        (tmp_path / "m.json").write_text(json.dumps(marg))
        (tmp_path / "c.json").write_text(json.dumps({"marginals": str(tmp_path / "m.json"), "epsilon": 1,
                                                     "n_list": [2], "mode": "exact"}))
        argv = {"f-estimate": ["f-estimate", "--config", str(tmp_path / "c.json")],
                "markovize": ["weight-tools", "markovize", "--marginals", str(tmp_path / "m.json")]}[command]
        t0 = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - t0 < 0.1
        assert capsys.readouterr().err == self.LETTERS


class TestFuzzFound:
    """Inputs that ``test_fuzz_cli`` found crashing with a traceback."""

    @pytest.mark.parametrize("command", ["markovize", "f-estimate"])
    def test_a_huge_window_radius_exits_3(self, half_weight_file, tmp_path, capsys, command):
        # the radius-10^400 ball was built word by word until memory ran out
        if command == "markovize":
            data = {"rank": 2, "window_radius": 10**400, "entries": []}
            (tmp_path / "m.json").write_text(json.dumps(data))
            argv = ["weight-tools", "markovize", "--marginals", str(tmp_path / "m.json")]
        else:
            cfg = {"weight": half_weight_file, "window": 10**400, "epsilon": 1, "n_list": [2], "mode": "exact"}
            (tmp_path / "c.json").write_text(json.dumps(cfg))
            argv = ["f-estimate", "--config", str(tmp_path / "c.json")]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"resource cap: ball of radius {10**400} may exceed five million letters\n"

    def test_an_action_n_beyond_its_perms_exits_2(self, tmp_path, capsys):
        # list(range(10^400)) overflowed before the perms were compared with n
        cfg = {"rank": 2, "rho": 1, "action": {"n": 10**400, "perms": [[1, 0], [0, 1]]}, "x": []}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["sft-verify", "--config", str(tmp_path / "c.json")]) == 2
        assert capsys.readouterr().err == "input error: each generator image must be a permutation of [n]\n"

    def test_an_integer_past_the_int_to_str_limit_exits_2(self, tmp_path, capsys):
        # json.load raised int()'s ValueError, which is not a JSONDecodeError
        path = tmp_path / "w.json"
        path.write_text('{"rank": ' + "9" * 5000 + "}")
        assert main(["weight-tools", "validate", "--weight", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {path} is not valid json: Exceeds the limit")

    def test_an_epsilon_past_float_range_counts_every_labeling(self, tmp_path, capsys):
        # a float target turned epsilon into a float, which overflowed
        w = bernoulli_weight({"0": 0.25, "1": 0.75}, 2)
        (tmp_path / "w.json").write_text(json.dumps(w.to_json()))
        rows = []
        for epsilon in (10**400, 3):
            cfg = {"weight": str(tmp_path / "w.json"), "window": 0, "epsilon": epsilon, "n_list": [2, 3],
                   "samples": 2, "seed": 1}
            (tmp_path / "c.json").write_text(json.dumps(cfg))
            assert main(["f-estimate", "--config", str(tmp_path / "c.json")]) == 0
            rows.append(capsys.readouterr().out.splitlines()[1:])
        assert rows[0] == rows[1] == ["n,samples,mean_count,log_mean_over_n,stderr",
                                      f"2,2,4,{_fmt_log(4, 2)},0", f"3,2,8,{_fmt_log(8, 3)},0"]


def _fmt_log(count, n):
    return f"{math.log(count) / n:.15g}"
