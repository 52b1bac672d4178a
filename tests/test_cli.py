import json
import math
import os
import re
import sys
import time
from importlib import import_module
from pathlib import Path
from pkgutil import iter_modules

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import schurdet
from schurdet import InternalConsistencyError, cli
from schurdet.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCriticalSet:
    def test_hook(self, capsys):
        code, out, _ = run(capsys, "critical-set", "4,1")
        assert code == 0
        assert out.strip() == "(5)"

    def test_single_row_is_empty(self, capsys):
        code, out, _ = run(capsys, "critical-set", "5")
        assert code == 0
        assert out.strip() == "(empty)"

    def test_parenthesized_input(self, capsys):
        code, out, _ = run(capsys, "critical-set", "(2,2,1)")
        assert code == 0
        assert out.strip() == "(3,1,1)"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "critical-set", "2,2", "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"critical": [[3, 1]], "lambda": [2, 2]}

    def test_bad_partition(self, capsys):
        code, _, err = run(capsys, "critical-set", "1,2")
        assert code == 2
        assert "error" in err

    def test_not_numbers(self, capsys):
        code, _, err = run(capsys, "critical-set", "a,b")
        assert code == 2

    def test_weight_beyond_the_guard(self, capsys):
        code, _, err = run(capsys, "critical-set", "13")
        assert code == 2


class TestVerify:
    def test_lemma1(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma1", "--max-mu", "3")
        assert code == 0
        assert out.count("[pass]") == 3
        assert "verdict: pass" in out

    def test_t2_small(self, capsys):
        code, out, _ = run(
            capsys, "verify", "t2", "--p", "3", "--n", "2", "--trials", "1"
        )
        assert code == 0
        assert "verdict: pass" in out

    def test_main_small(self, capsys):
        code, out, _ = run(
            capsys, "verify", "main", "--p", "3", "--n", "3", "--trials", "2"
        )
        assert code == 0

    def test_main_with_nothing_to_sweep_prints_a_note(self, capsys):
        code, out, _ = run(capsys, "verify", "main", "--p", "2", "--n", "1")
        assert code == 0
        assert out.splitlines() == [
            "note: order 2, dim 1: every shape that meets the dimension bound is "
            "exceptional; nothing to sweep",
            "verdict: pass",
        ]

    def test_pfaffian_and_hyperdet(self, capsys):
        assert run(capsys, "verify", "pfaffian", "--trials", "2")[0] == 0
        assert run(capsys, "verify", "hyperdet222", "--trials", "3")[0] == 0

    def test_json_document(self, capsys):
        code, out, _ = run(
            capsys, "verify", "hyperdet222", "--trials", "2", "--output", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["suite"] == "hyperdet222"
        assert doc["verdict"] == "pass"
        assert {c["name"] for c in doc["checks"]} == {
            "diagonal",
            "null-pattern",
            "rank-one",
            "slot-invariance",
            "homogeneity",
        }

    @pytest.mark.parametrize(
        "argv, name, wrong, failing",
        [
            (  # a failed positive equation reported for the two-row shape
                ["t2", "--p", "3", "--n", "2", "--trials", "1"],
                "critical_equation_failures",
                lambda real: lambda lam, tensor: real(lam, tensor) + [None] * (lam.rows == 2),
                ["t2 (2,1)"],
            ),
            (  # Pf + 1 at size 4, whose square is never det
                ["pfaffian", "--trials", "2"],
                "pfaffian",
                lambda real: lambda matrix: real(matrix) + (len(matrix) == 4),
                ["pfaffian size=4"],
            ),
            (  # plus the (0,1,1) entry: zero on the fixed tensors, not a slot invariant
                ["hyperdet222", "--trials", "3"],
                "hyperdet_222",
                lambda real: lambda tensor: real(tensor) + tensor.entry((0, 1, 1)),
                ["hyperdet222 rank-one", "hyperdet222 slot-invariance",
                 "hyperdet222 homogeneity"],
            ),
        ],
        ids=["t2", "pfaffian", "hyperdet222"],
    )
    def test_a_wrong_computation_fails_its_checks(
        self, capsys, monkeypatch, argv, name, wrong, failing
    ):
        monkeypatch.setattr(cli, name, wrong(getattr(cli, name)))
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 1
        assert [line[7:] for line in out.splitlines() if line.startswith("[FAIL] ")] == failing
        assert out.endswith("verdict: fail\n")

    def test_order_guard(self, capsys):
        code, _, err = run(capsys, "verify", "t2", "--p", "7", "--n", "2")
        assert code == 2
        assert "--p" in err

    def test_dim_guard(self, capsys):
        # 6**5 = 7,776 and 65**2 = 4,225 pass MAX_DENSE_SIZE
        for p, n in [(5, 6), (2, 65)]:
            code, _, err = run(capsys, "verify", "t2", "--p", str(p), "--n", str(n))
            assert code == 2
            assert "--n" in err

    @pytest.mark.parametrize("p,n", [(10**20, 2), (6, 10**20)], ids=["huge-p", "huge-n"])
    def test_order_is_checked_before_the_size(self, capsys, p, n):
        # were n**p formed before p is checked, 2**(10**20) would never finish
        start = time.perf_counter()
        code, out, err = run(capsys, "report", "--p", str(p), "--n", str(n))
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_trials_guard(self, capsys):
        assert run(capsys, "verify", "main", "--trials", "0")[0] == 2

    @pytest.mark.parametrize("command", ["verify main", "report"])
    def test_trials_upper_bound_fires_before_any_trial(self, capsys, monkeypatch, command):
        # a sweep or a draw would call the None and fail with TypeError
        monkeypatch.setattr(cli, "degeneracy_sweep", None)
        monkeypatch.setattr(cli, "random_tensor", None)
        huge = str(10**20)
        code, out, err = run(capsys, *command.split(), "--trials", huge)
        assert code == 2 and out == ""
        assert err == f"error: --trials must be in 1..{cli.MAX_TRIALS}\n"
        assert cli.SuiteConfig(5, 3, cli.MAX_TRIALS, 1, 1).trials == cli.MAX_TRIALS
        with pytest.raises(cli.UsageError):
            cli.SuiteConfig(5, 3, cli.MAX_TRIALS + 1, 1, 1)

    def test_max_mu_guard(self, capsys):
        assert run(capsys, "verify", "lemma1", "--max-mu", "17")[0] == 2

    def test_unknown_suite(self, capsys):
        assert run(capsys, "verify", "nonsense")[0] == 2


class TestHyperdetCommand:
    def write(self, tmp_path, name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    def test_tensor_value(self, capsys, tmp_path):
        tensor = {
            "order": 3,
            "dim": 2,
            "entries": ["1", "0", "0", "0", "0", "0", "0", "1"],
        }
        path = self.write(tmp_path, "t.json", tensor)
        code, out, _ = run(capsys, "hyperdet", "--input", path)
        assert code == 0
        assert out.strip() == "1"

    def test_json_output(self, capsys, tmp_path):
        tensor = {
            "order": 3,
            "dim": 2,
            "entries": ["0", "1", "1", "0", "1", "0", "0", "0"],
        }
        path = self.write(tmp_path, "w.json", tensor)
        code, out, _ = run(capsys, "hyperdet", "--input", path, "--output", "json")
        assert code == 0
        assert json.loads(out) == {"invariant": "hyperdet222", "value": "0"}

    def test_pfaffian_mode(self, capsys, tmp_path):
        path = self.write(tmp_path, "m.json", [[0, "3"], ["-3", 0]])
        code, out, _ = run(capsys, "hyperdet", "--input", path, "--pfaffian")
        assert code == 0
        assert out.strip() == "3"

    def test_det_mode(self, capsys, tmp_path):
        path = self.write(tmp_path, "m.json", [[0, "3"], ["-3", 0]])
        code, out, _ = run(
            capsys, "hyperdet", "--input", path, "--det", "--output", "json"
        )
        assert code == 0
        assert json.loads(out)["value"] == "9"

    def test_det_mode_rational_entries(self, capsys, tmp_path):
        path = self.write(tmp_path, "m.json", [["1/2", 3], ["-2/3", "5/4"]])
        code, out, _ = run(capsys, "hyperdet", "--input", path, "--det")
        assert code == 0
        assert out.strip() == "21/8"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "hyperdet", "--input", str(tmp_path / "no.json"))
        assert code == 2

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(capsys, "hyperdet", "--input", str(path))[0] == 2

    def test_wrong_tensor_format(self, capsys, tmp_path):
        tensor = {"order": 3, "dim": 3, "entries": ["0"] * 27}
        path = self.write(tmp_path, "t.json", tensor)
        assert run(capsys, "hyperdet", "--input", path)[0] == 2

    def test_float_entries_rejected(self, capsys, tmp_path):
        tensor = {"order": 3, "dim": 2, "entries": [0.5] + ["0"] * 7}
        path = self.write(tmp_path, "t.json", tensor)
        assert run(capsys, "hyperdet", "--input", path)[0] == 2

    def test_non_skew_pfaffian_input(self, capsys, tmp_path):
        path = self.write(tmp_path, "m.json", [[0, 1], [1, 0]])
        assert run(capsys, "hyperdet", "--input", path, "--pfaffian")[0] == 2

    def test_input_is_required(self, capsys):
        assert run(capsys, "hyperdet")[0] == 2

    def input_error(self, capsys, *argv):
        """Run hyperdet, expect exit 2 with one `error:` line and no traceback."""
        code, out, err = run(capsys, "hyperdet", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("entry", ["1/0", "1e3"])
    @pytest.mark.parametrize("mode", ["tensor", "--det", "--pfaffian"])
    def test_bad_entry_text(self, capsys, tmp_path, mode, entry):
        if mode == "tensor":
            obj, flags = {"order": 3, "dim": 2, "entries": [entry] + ["0"] * 7}, []
        else:
            obj, flags = [["0", entry], ["0", "0"]], [mode]
        path = self.write(tmp_path, "bad.json", obj)
        assert entry in self.input_error(capsys, "--input", path, *flags)

    @pytest.mark.parametrize("key", ["order", "dim"])
    def test_boolean_order_or_dim(self, capsys, tmp_path, key):
        tensor = {"order": 3, "dim": 2, "entries": ["0"] * 8}
        tensor[key] = True
        path = self.write(tmp_path, "t.json", tensor)
        assert "integers" in self.input_error(capsys, "--input", path)

    @pytest.mark.parametrize(
        "data", [b"\xff\xfe[1]", b"[" * 100_000], ids=["bad-utf8", "deep-nesting"]
    )
    def test_unreadable_json(self, capsys, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert "not valid JSON" in self.input_error(capsys, "--input", str(path))

    def test_input_byte_bound(self, capsys, tmp_path, monkeypatch):
        path = self.write(tmp_path, "m.json", [[0, "3"], ["-3", 0]])
        size = os.path.getsize(path)
        monkeypatch.setattr(cli, "MAX_INPUT_BYTES", size)
        assert run(capsys, "hyperdet", "--input", path, "--pfaffian")[:2] == (0, "3\n")
        monkeypatch.setattr(cli, "MAX_INPUT_BYTES", size - 1)
        assert f"longer than {size - 1} bytes" in self.input_error(
            capsys, "--input", path, "--pfaffian"
        )

    def test_endless_input(self, capsys):
        assert "longer than" in self.input_error(capsys, "--input", "/dev/zero")

    def test_oversized_det(self, capsys, tmp_path):
        path = self.write(tmp_path, "m.json", [[0] * 66] * 66)
        assert "65" in self.input_error(capsys, "--input", path, "--det")

    @pytest.mark.parametrize("mode, size, bound", [("--det", 66, "65"), ("--pfaffian", 10, "8")])
    def test_size_guard_fires_before_any_entry_is_read(self, capsys, tmp_path, mode, size, bound):
        # a float entry would be refused as a bad entry if it were read first
        path = self.write(tmp_path, "m.json", [[0.5] * size] * size)
        assert bound in self.input_error(capsys, "--input", path, mode)

    def test_denominators_past_the_bound(self, capsys, tmp_path):
        """A 4 MB order-12 document whose entries share no denominator exits promptly."""
        entries = [f"1/{10**997 + 2 * k + 1}" for k in range(4096)]
        path = self.write(tmp_path, "t.json", {"order": 12, "dim": 2, "entries": entries})
        start = time.perf_counter()
        assert "common denominator" in self.input_error(capsys, "--input", path)
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize(
        "shape, message", [((1, 4096), "square"), ((65, 65), "common denominator")],
        ids=["one-row", "65x65"],
    )
    def test_det_denominators_past_the_bound(self, capsys, tmp_path, shape, message):
        """Coprime 998-digit denominators in the first row exit promptly."""
        n_rows, n_cols = shape
        first = [f"1/{10**997 + 2 * k + 1}" for k in range(n_cols)]
        path = self.write(tmp_path, "m.json", [first] + [[0] * n_cols] * (n_rows - 1))
        start = time.perf_counter()
        assert message in self.input_error(capsys, "--input", path, "--det")
        assert time.perf_counter() - start < 10

    def test_det_entry_bits_past_the_bound(self, capsys, tmp_path):
        """20 x 20 entries of 4,300 digits: 1.7 MB, refused before elimination."""
        big = 10**4300 - 1
        rows = [[big - i - j for j in range(20)] for i in range(20)]
        path = self.write(tmp_path, "m.json", rows)
        start = time.perf_counter()
        assert "bits > 1024" in self.input_error(capsys, "--input", path, "--det")
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize("output", ["text", "json"])
    @pytest.mark.parametrize("mode", ["tensor", "--pfaffian", "--det"])
    def test_value_past_the_digit_limit(self, capsys, tmp_path, mode, output):
        """Values whose integers pass the interpreter's digit limit exit 2."""
        big = 10**4300 - 1
        if mode == "tensor":  # big**4, about 17,200 digits
            obj, flags = {"order": 3, "dim": 2, "entries": [big] + [0] * 6 + [big]}, []
        elif mode == "--pfaffian":  # big**2
            obj = [[0, big, 0, 0], [-big, 0, 0, 0], [0, 0, 0, big], [0, 0, -big, 0]]
            flags = [mode]
        else:  # a denominator of about 4,980 digits
            obj = [[f"1/{10**995 + k}" if j == k else 0 for j in range(5)] for k in range(5)]
            flags = [mode]
        path = self.write(tmp_path, "doc.json", obj)
        err = self.input_error(capsys, "--input", path, *flags, "--output", output)
        self.assert_names_the_digit_limit(err)

    @pytest.mark.parametrize(
        "mode", [(), ("--pfaffian",), ("--det",)], ids=["tensor", "--pfaffian", "--det"]
    )
    def test_json_integer_past_the_digit_limit(self, capsys, tmp_path, mode):
        """A JSON integer the interpreter will not read is refused in every mode."""
        path = tmp_path / "doc.json"
        path.write_bytes(b"[[" + b"1" * (sys.get_int_max_str_digits() + 1) + b"]]")
        err = self.input_error(capsys, "--input", str(path), *mode)
        assert "not valid JSON" not in err
        self.assert_names_the_digit_limit(err)

    @staticmethod
    def assert_names_the_digit_limit(err):
        assert f"more than {sys.get_int_max_str_digits()} digits" in err
        assert "use smaller entries" in err
        assert "set_int_max_str_digits" not in err

    def test_oversized_order(self, capsys, tmp_path):
        tensor = {"order": 2_000_000, "dim": 2, "entries": ["0"]}
        path = self.write(tmp_path, "t.json", tensor)
        assert "4096" in self.input_error(capsys, "--input", path)


class TestReport:
    def test_exit_and_structure(self, capsys):
        code, out, _ = run(
            capsys, "report", "--p", "3", "--trials", "2", "--output", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"config", "suites", "notes", "verdict", "timings"}
        assert set(doc["suites"]) == {"lemma1", "t2", "main", "pfaffian", "hyperdet222"}
        assert doc["verdict"] == "pass"
        assert set(doc["timings"]) == set(doc["suites"])

    def test_deterministic_apart_from_timings(self, capsys):
        _, first, _ = run(
            capsys, "report", "--p", "3", "--trials", "2", "--output", "json"
        )
        _, second, _ = run(
            capsys, "report", "--p", "3", "--trials", "2", "--output", "json"
        )
        a, b = json.loads(first), json.loads(second)
        a.pop("timings")
        b.pop("timings")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_order_two_note(self, capsys):
        code, out, _ = run(
            capsys, "report", "--p", "2", "--trials", "1", "--output", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert any("order 2" in note for note in doc["notes"])

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "report", "--p", "2", "--trials", "1")
        assert code == 0
        assert "suite lemma1: pass" in out
        assert out.strip().endswith("verdict: pass")

    def test_every_cache_on_the_report_path_hits(self, capsys):
        # a cache that the report never calls, whose one caller is itself cached, or
        # that sees each key once, holds memory and buys nothing: a cold report must
        # both miss and hit every cache in the package
        modules = [import_module(f"schurdet.{m.name}") for m in iter_modules(schurdet.__path__)]
        caches = {
            f"{module.__name__}.{name}": fn
            for module in modules
            for name, fn in vars(module).items()
            if hasattr(fn, "cache_info") and fn.__module__ == module.__name__
        }
        assert {"schurdet.tensor_space._orbit_layout", "schurdet.tensor_space._weight_blocks"} <= set(caches)
        for fn in caches.values():
            fn.cache_clear()
        started = time.perf_counter()
        code, _, _ = run(capsys, "report", "--p", "5", "--n", "3", "--output", "json")
        assert code == 0 and time.perf_counter() - started < 1
        infos = {name: fn.cache_info() for name, fn in caches.items()}
        assert [name for name, info in infos.items() if not (info.misses and info.hits)] == []


class TestSuiteTable:
    """verify, report and --help read each suite's runner and default trials from SUITES."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every suite, and one added last, run by a recorder of (suite, trials)."""
        calls = []

        def recorder(name):
            def run(config, trials):
                calls.append((name, trials))
                return {"checks": [{"name": "only", "pass": True}], "verdict": "pass"}

            return run

        for name, (_, trials) in list(cli.SUITES.items()):
            monkeypatch.setitem(cli.SUITES, name, (recorder(name), trials))
        monkeypatch.setitem(cli.SUITES, "extra", (recorder("extra"), 7))
        return calls

    def test_an_added_suite_is_a_choice_of_verify(self, capsys, calls):
        code, out, _ = run(capsys, "verify", "extra")
        assert code == 0 and out == "[pass] extra only\nverdict: pass\n"
        assert run(capsys, "verify", "extra", "--trials", "3")[0] == 0
        assert calls == [("extra", 7), ("extra", 3)]
        _, _, err = run(capsys, "verify", "nosuch")  # the choices are listed sorted
        assert "'extra', 'hyperdet222', 'lemma1', 'main', 'pfaffian', 't2'" in err

    def test_report_runs_an_added_suite_last_over_its_own_default(self, capsys, calls):
        code, out, _ = run(capsys, "report")
        assert code == 0
        assert calls == [
            ("lemma1", None), ("t2", 5), ("main", 20), ("pfaffian", 20), ("hyperdet222", 50),
            ("extra", 7),
        ]
        assert out.splitlines()[:6] == [f"suite {name}: pass" for name, _ in calls]
        calls.clear()
        code, out, _ = run(capsys, "report", "--trials", "2", "--output", "json")
        assert code == 0 and {trials for _, trials in calls} == {2}
        doc = json.loads(out)
        assert doc["suites"]["extra"]["verdict"] == "pass" and "extra" in doc["timings"]

    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_an_added_suite_shows_in_the_trials_help(self, capsys, calls, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert "default t2 5, main 20, pfaffian 20, hyperdet222 50, extra 7)" in " ".join(out.split())
        assert calls == []


    def test_the_readme_lists_each_suite_with_its_default_trials(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `(\w+)` *\| (\w+) +\|", readme, re.MULTILINE)
        assert rows == [(name, str(t or "none")) for name, (_, t) in cli.SUITES.items()]


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_help_ranges_follow_the_guards(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_PROJECTOR_DEGREE", 7)
        monkeypatch.setattr(cli, "MAX_DENSE_SIZE", 5000)
        monkeypatch.setattr(cli, "MAX_EIGENCHECK", 20)
        monkeypatch.setattr(cli, "MAX_TRIALS", 300)
        monkeypatch.setitem(cli.SUITES, "t2", (cli.run_t2, 9))
        code, out, _ = run(capsys, "report", "--help")
        assert code == 0
        assert "(2..7)" in out and "n**p <= 5000" in out and "(1..20)" in out
        assert "(1..300; default t2 9, main 20, pfaffian 20, hyperdet222 50)" in " ".join(out.split())

    @pytest.mark.parametrize(
        "argv",
        [["report", "--p", "abc"], ["verify", "nosuch"], ["critical-set"], ["frobnicate"], []],
        ids=["bad-int", "unknown-suite", "missing-partition", "unknown-command", "no-arguments"],
    )
    def test_flag_errors_print_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_internal_consistency_error_exits_one(self, capsys, monkeypatch):
        def broken(matrix):
            raise InternalConsistencyError("slot system disagrees")

        monkeypatch.setattr(cli, "det_exact", broken)
        code, out, err = run(capsys, "verify", "lemma1", "--max-mu", "1")
        assert code == 1 and out == ""
        assert err == "internal check failed: slot system disagrees\n"


# --- property tests: main returns an exit code for any input ------------------

good_cells = st.integers(-9, 9) | st.sampled_from(["0", "-3", "2/3", "-7/4"])
bad_cells = st.sampled_from(["1/0", "1e3", "", "x", None, True, 0.5])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
# near-valid documents reach past the shape checks into the computations
tensor_docs = st.fixed_dictionaries({
    "order": st.just(3),
    "dim": st.just(2),
    "entries": st.lists(good_cells, min_size=8, max_size=8)
    | st.lists(good_cells | bad_cells, min_size=8, max_size=8),
}) | st.fixed_dictionaries({
    "order": st.integers(-1, 4) | json_values,
    "dim": st.integers(-1, 3) | json_values,
    "entries": st.lists(good_cells | bad_cells, max_size=9),
})
square = st.integers(0, 6).flatmap(
    lambda size: st.lists(
        st.lists(st.integers(-9, 9), min_size=size, max_size=size),
        min_size=size, max_size=size,
    )
)
skew = square.map(
    lambda m: [[a - b for a, b in zip(row, col)] for row, col in zip(m, zip(*m))]
)
matrix_docs = square | skew | st.lists(
    st.lists(good_cells | bad_cells, max_size=5), max_size=5
)
fuzz = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def not_an_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return True
    return False


# each flag's accepted range; --seed takes any integer
RANGES = {
    "--p": (2, cli.MAX_PROJECTOR_DEGREE),
    "--n": (1, math.isqrt(cli.MAX_DENSE_SIZE)),
    "--trials": (1, cli.MAX_TRIALS),
    "--max-mu": (1, cli.MAX_EIGENCHECK),
}
# texts that are not integers, none starting with "-" (which would read as a flag)
non_integers = st.sampled_from(["abc", "1.5", "", "0x10", "1e3", "2/3", "+-1"]) | st.text(
    max_size=6
).filter(lambda t: not t.startswith("-") and not_an_int(t))


@st.composite
def bad_config_argv(draw):
    """verify SUITE or report with valid flags and one bad value: a non-integer, a bound
    minus or plus one, 10**20, an unknown --output or an unknown suite."""
    command = draw(st.sampled_from(["verify", "report"]))
    faults = ["--p", "--n", "--trials", "--max-mu", "--seed", "--output"]
    fault = draw(st.sampled_from(faults + ["suite"] * (command == "verify")))
    suite = draw(st.sampled_from(sorted(cli.SUITES)))
    if fault == "suite":
        suite = draw(non_integers.filter(lambda t: t not in cli.SUITES) | st.just("T2"))
    elif fault == "--output":
        bad = draw(st.sampled_from(["xml", "JSON", ""]))
    elif fault == "--seed":
        bad = draw(non_integers)
    else:
        lo, hi = RANGES[fault]
        bad = draw(st.sampled_from([str(lo - 1), str(hi + 1), str(10**20)]) | non_integers)
    flags = []
    for flag in draw(st.permutations(faults)):
        if flag == fault:
            flags += [flag, bad]
        elif flag in RANGES and draw(st.booleans()):
            flags += [flag, str(draw(st.integers(*RANGES[flag])))]
    return [command] + [suite] * (command == "verify") + flags


class TestNeverRaises:
    """Any input exits 0, 1 or 2 without a traceback; a bad verify or report flag exits 2
    before any suite runs."""

    @settings(fuzz, max_examples=80)
    @given(argv=bad_config_argv())
    def test_bad_config_flags(self, capsys, monkeypatch, argv):
        def refuse(config, trials):
            pytest.fail(f"a suite ran for {argv}")

        for name, (_, trials) in list(cli.SUITES.items()):
            monkeypatch.setitem(cli.SUITES, name, (refuse, trials))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @fuzz
    @given(data=st.data())
    @pytest.mark.parametrize("mode", ["tensor", "--det", "--pfaffian"])
    def test_hyperdet_input(self, capsys, tmp_path, mode, data):
        shaped = tensor_docs if mode == "tensor" else matrix_docs
        doc = data.draw(shaped | json_values)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        flags = [] if mode == "tensor" else [mode]
        code, out, err = run(capsys, "hyperdet", "--input", str(path), *flags)
        assert code in (0, 1, 2)
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    @fuzz
    @given(
        text=st.text(max_size=12)
        | st.lists(st.integers(-1, 7), max_size=5).map(
            lambda parts: ",".join(map(str, sorted(parts, reverse=True)))
        )
    )
    def test_critical_set_text(self, capsys, text):
        code, _, _ = run(capsys, "critical-set", text)
        assert code in (0, 1, 2)
