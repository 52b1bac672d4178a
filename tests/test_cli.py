import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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

    def test_order_guard(self, capsys):
        code, _, err = run(capsys, "verify", "t2", "--p", "6", "--n", "3")
        assert code == 2
        assert "--p" in err

    def test_dim_guard(self, capsys):
        assert run(capsys, "verify", "t2", "--n", "4")[0] == 2

    def test_trials_guard(self, capsys):
        assert run(capsys, "verify", "main", "--trials", "0")[0] == 2

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
        "data",
        [b"\xff\xfe[1]", b"1" * 5000, b"[" * 100_000],
        ids=["bad-utf8", "int-past-digit-limit", "deep-nesting"],
    )
    def test_unreadable_json(self, capsys, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert "not valid JSON" in self.input_error(capsys, "--input", str(path))

    def test_oversized_det(self, capsys, tmp_path):
        path = self.write(tmp_path, "m.json", [[0] * 66] * 66)
        assert "65" in self.input_error(capsys, "--input", path, "--det")

    def test_denominators_past_the_bound(self, capsys, tmp_path):
        """A 4 MB order-12 document whose entries share no denominator exits promptly."""
        entries = [f"1/{10**997 + 2 * k + 1}" for k in range(4096)]
        path = self.write(tmp_path, "t.json", {"order": 12, "dim": 2, "entries": entries})
        start = time.perf_counter()
        assert "common denominator" in self.input_error(capsys, "--input", path)
        assert time.perf_counter() - start < 10

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


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2


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


class TestNeverRaises:
    """Any input exits 0, 1 or 2 without a traceback (report and verify not fuzzed)."""

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
