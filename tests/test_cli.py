import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gfharmonic
from gfharmonic import ExponentFunction, ScalarFunction, VectorFunction, make_group
from gfharmonic.cli import main
from gfharmonic.serialize import (
    dumps,
    exponent_function_to_obj,
    group_file_to_obj,
    scalar_function_to_obj,
    vector_function_to_obj,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(dumps(obj) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def bent_file(tmp_path, z3):
    f = ScalarFunction.from_exponents(z3, 3, [0, 1, 1])
    return write(tmp_path, "f.json", scalar_function_to_obj(f))


@pytest.fixture
def flat_file(tmp_path, z3):
    f = ScalarFunction.constant(z3, z3.ctx.one)
    return write(tmp_path, "flat.json", scalar_function_to_obj(f))


@pytest.fixture
def z3_group_file(tmp_path, z3):
    return write(tmp_path, "z3.json", group_file_to_obj(z3))


class TestFieldInfo:
    def test_reports_parameters(self, capsys):
        code, out, _ = run(capsys, "field-info", "--p", "2", "--n", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["q"] == 16
        assert obj["sqrt_q"] == 4
        assert obj["circle_order"] == 5
        assert obj["modulus"] == [1, 1, 0, 0, 1]
        assert obj["g"] == [0, 1, 0, 0]
        assert obj["u"] == [0, 0, 0, 1]

    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "field-info", "--p", "2", "--n", "1", "--pretty")
        assert code == 0
        assert "circle order = 3" in out

    def test_error_record_on_bad_prime(self, capsys):
        code, out, err = run(capsys, "field-info", "--p", "4", "--n", "1")
        assert code == 2
        record = json.loads(err)
        assert record["code"] == "non-prime"
        assert record["witness"] == 4


class TestCharTable:
    def test_table_shape(self, capsys, z3_group_file):
        code, out, _ = run(capsys, "char-table", "--group", z3_group_file)
        assert code == 0
        obj = json.loads(out)
        assert len(obj["table"]) == 3
        assert obj["table"][1][1] == [0, 1]


class TestTransforms:
    def test_ft_then_ift_round_trips(self, capsys, tmp_path, bent_file):
        out_path = str(tmp_path / "F.json")
        code, _, _ = run(capsys, "ft", "--in", bent_file, "--out", out_path)
        assert code == 0
        back_path = str(tmp_path / "f2.json")
        code, _, _ = run(capsys, "ift", "--in", out_path, "--out", back_path)
        assert code == 0
        with open(bent_file) as fh:
            original = fh.read()
        with open(back_path) as fh:
            recovered = fh.read()
        assert original == recovered

    def test_emitted_artifact_reparses_identically(self, capsys, bent_file):
        code, out, _ = run(capsys, "ft", "--in", bent_file)
        assert code == 0
        obj = json.loads(out)
        from gfharmonic.serialize import scalar_function_from_obj

        assert dumps(scalar_function_to_obj(scalar_function_from_obj(obj))) == out.strip()

    def test_conv(self, capsys, tmp_path, z3):
        d1 = write(
            tmp_path, "d1.json", scalar_function_to_obj(ScalarFunction.delta(z3, (1,)))
        )
        code, out, _ = run(capsys, "conv", "--in", d1, "--in2", d1)
        assert code == 0
        assert json.loads(out)["values"] == [[0, 0], [0, 0], [1, 0]]


class TestBentCommands:
    def test_bent_check_exit_zero(self, capsys, bent_file):
        code, out, _ = run(capsys, "bent-check", "--in", bent_file)
        assert code == 0
        assert json.loads(out)["is_bent"] is True

    def test_bent_check_exit_one(self, capsys, flat_file):
        code, out, _ = run(capsys, "bent-check", "--in", flat_file)
        assert code == 1
        obj = json.loads(out)
        assert obj["is_bent"] is False
        assert obj["failing_points"] == [[1], [2]]

    def test_bent_check_error_exit_two(self, capsys, tmp_path, z3):
        f = ScalarFunction(z3, (z3.ctx.one, z3.ctx.zero, z3.ctx.one))
        path = write(tmp_path, "bad.json", scalar_function_to_obj(f))
        code, _, err = run(capsys, "bent-check", "--in", path)
        assert code == 2
        assert json.loads(err)["code"] == "not-circle-valued"

    def test_missing_file_error(self, capsys):
        code, _, err = run(capsys, "bent-check", "--in", "/nonexistent/f.json")
        assert code == 2
        assert json.loads(err)["code"] == "io-error"

    def test_mm_output_is_bent(self, capsys, tmp_path, bent_file, z3sq):
        code, out, _ = run(capsys, "mm", "--in", bent_file)
        assert code == 0
        obj = json.loads(out)
        assert obj["group"] == {"factors": [{"d": 3, "m": 1}, {"d": 3, "m": 1}]}
        assert len(obj["values"]) == 9
        mm_path = write(tmp_path, "mm.json", obj)
        code, _, _ = run(capsys, "bent-check", "--in", mm_path)
        assert code == 0

    def test_dual(self, capsys, bent_file):
        code, out, _ = run(capsys, "dual", "--in", bent_file)
        assert code == 0
        assert json.loads(out)["values"] == [[1, 0], [1, 1], [1, 1]]

    def test_dual_of_non_bent_fails(self, capsys, flat_file):
        code, _, err = run(capsys, "dual", "--in", flat_file)
        assert code == 2
        assert json.loads(err)["code"] == "not-bent"


class TestSearch:
    def test_census(self, capsys, z3_group_file):
        code, out, _ = run(capsys, "search", "--group", z3_group_file, "--d", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["candidates"] == 27
        assert obj["count"] == 18
        assert len(obj["bent"]) == 18

    def test_jobs_do_not_change_output(self, capsys, z3_group_file):
        _, out1, _ = run(capsys, "search", "--group", z3_group_file, "--d", "3", "--jobs", "1")
        _, out2, _ = run(capsys, "search", "--group", z3_group_file, "--d", "3", "--jobs", "2")
        assert out1 == out2

    def test_budget_guard(self, capsys, tmp_path, z5sq):
        path = write(tmp_path, "z5sq.json", group_file_to_obj(z5sq))
        code, _, err = run(
            capsys, "search", "--group", path, "--d", "5", "--max-candidates", "100"
        )
        assert code == 2
        assert json.loads(err)["code"] == "budget-exceeded"


class TestCompare:
    def test_exhaustive(self, capsys, z3_group_file):
        code, out, _ = run(
            capsys, "compare", "--group", z3_group_file, "--m", "3", "--exhaustive"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["checked"] == 27
        assert obj["classical_bent"] == 18
        assert obj["counterexamples"] == []

    def test_single_input(self, capsys, tmp_path, z3):
        ef = ExponentFunction(z3, 3, (0, 1, 1))
        path = write(tmp_path, "ef.json", exponent_function_to_obj(ef))
        code, out, _ = run(capsys, "compare", "--in", path)
        assert code == 0
        assert json.loads(out)["classical_bent"] == 1


class TestVectorialCheck:
    def test_bent_padded_function(self, capsys, tmp_path, z3):
        f = VectorFunction.from_scalar(
            ScalarFunction.from_exponents(z3, 3, [0, 1, 1]), 2
        )
        path = write(tmp_path, "vf.json", vector_function_to_obj(f))
        code, out, _ = run(capsys, "vectorial-check", "--in", path)
        assert code == 0
        obj = json.loads(out)
        assert obj["is_bent"] is True
        assert obj["derivative_agrees"] is True

    def test_not_bent(self, capsys, tmp_path, z3):
        ctx = z3.ctx
        f = VectorFunction(z3, 2, ((ctx.one, ctx.zero),) * 3)
        path = write(tmp_path, "vf.json", vector_function_to_obj(f))
        code, _, _ = run(capsys, "vectorial-check", "--in", path)
        assert code == 1


class TestParsing:
    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "bent-check", "--in", str(path))
        assert code == 2
        assert json.loads(err)["code"] == "malformed-input"

    def test_group_spec_validation_surfaces(self, capsys, tmp_path):
        obj = {"context": {"p": 2, "n": 2}, "group": {"factors": [{"d": 3, "m": 1}]}}
        path = write(tmp_path, "bad_group.json", obj)
        code, _, err = run(capsys, "char-table", "--group", path)
        assert code == 2
        assert json.loads(err)["code"] == "inadmissible-factor"


class TestErrorContract:
    """Bad parameters exit 2 with nothing on stdout and exactly one
    structured record naming the offending value."""

    def _record(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        record = json.loads(err)
        assert set(record) == {"code", "message", "witness"}
        return record

    def test_zero_degree(self, capsys):
        record = self._record(capsys, "field-info", "--p", "2", "--n", "0")
        assert record["code"] == "invalid-degree"
        assert record["witness"] == 0

    def test_zero_multiplicity(self, capsys, tmp_path):
        obj = {"context": {"p": 2, "n": 1}, "group": {"factors": [{"d": 3, "m": 0}]}}
        path = write(tmp_path, "m0.json", obj)
        record = self._record(capsys, "char-table", "--group", path)
        assert record["code"] == "inadmissible-factor"
        assert record["witness"] == 0

    def test_non_integer_prime(self, capsys, bent_file, tmp_path):
        with open(bent_file) as fh:
            obj = json.load(fh)
        obj["context"]["p"] = "x"
        path = write(tmp_path, "px.json", obj)
        record = self._record(capsys, "ft", "--in", path)
        assert record["code"] == "malformed-input"
        assert record["witness"] == "x"

    def test_non_integer_modulus(self, capsys):
        record = self._record(capsys, "field-info", "--p", "2", "--n", "1", "--modulus", "1,x,1")
        assert record["code"] == "malformed-input"
        assert record["witness"] == "1,x,1"

    def test_non_integer_flag(self, capsys):
        record = self._record(capsys, "field-info", "--p", "x", "--n", "1")
        assert record["code"] == "malformed-input"
        assert record["witness"] == "x"

    def test_missing_flag(self, capsys):
        record = self._record(capsys, "field-info", "--p", "2")
        assert record["code"] == "malformed-input"
        assert record["witness"] == "--n"

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["field-info", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_bool_degree(self, capsys, tmp_path):
        obj = {"context": {"p": 2, "n": True}, "group": {"factors": [{"d": 3, "m": 1}]}}
        path = write(tmp_path, "nbool.json", obj)
        record = self._record(capsys, "char-table", "--group", path)
        assert record["code"] == "malformed-input"
        assert record["witness"] is True

    @pytest.mark.parametrize("value", [[1, True], [3, 0], [0, -1]])
    def test_non_canonical_coefficient(self, capsys, bent_file, tmp_path, value):
        with open(bent_file) as fh:
            obj = json.load(fh)
        obj["values"][1] = value
        path = write(tmp_path, "coeff.json", obj)
        record = self._record(capsys, "ft", "--in", path)
        assert record["code"] == "malformed-input"
        assert record["witness"] == value

    def test_non_canonical_modulus_in_file(self, capsys, tmp_path):
        context = {"p": 2, "n": 1, "modulus": [1, 1, 3]}
        obj = {"context": context, "group": {"factors": [{"d": 3, "m": 1}]}}
        path = write(tmp_path, "mod3.json", obj)
        record = self._record(capsys, "char-table", "--group", path)
        assert record["code"] == "malformed-input"
        assert record["witness"] == [1, 1, 3]


class TestImports:
    def test_serial_commands_do_not_load_the_process_pool(self):
        code = (
            "import json, sys\n"
            "import gfharmonic, gfharmonic.cli\n"
            "rc = gfharmonic.cli.main(['field-info', '--p', '2', '--n', '1'])\n"
            "pool = ('concurrent.futures', 'multiprocessing')\n"
            "print(json.dumps([rc, sorted(m for m in pool if m in sys.modules)]))\n"
        )
        src = str(Path(gfharmonic.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]
