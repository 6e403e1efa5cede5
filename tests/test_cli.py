import contextlib
import copy
import io
import json
import os
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gfharmonic
import gfharmonic.errors
from gfharmonic import (
    ExponentFunction,
    GroupSpec,
    ScalarFunction,
    SpecMismatch,
    VectorFunction,
    make_context,
    make_group,
)
from gfharmonic import TooLarge, bent, cli, serialize
from gfharmonic.characters import character_row, character_value_naive
from gfharmonic.cli import main
from gfharmonic.serialize import (
    dumps,
    element_to_obj,
    group_file_to_obj,
    scalar_function_to_obj,
    vector_function_to_obj,
)
from _oracles import exponent_function_to_obj


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

    @staticmethod
    def _held_table(spec, pretty):
        """The output as built by holding every cell before writing."""
        rows = [character_row(spec, alpha).values for alpha in spec.elements()]
        if pretty:
            cells = [[str(v) for v in row] for row in rows]
            width = max(len(c) for row in cells for c in row)
            return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells) + "\n"
        table = [[element_to_obj(v) for v in row] for row in rows]
        return dumps({**group_file_to_obj(spec), "table": table}) + "\n"

    @pytest.mark.parametrize("factors", [[(5, 2)], [(5, 1), (13, 1)]])
    @pytest.mark.parametrize("pretty", [False, True])
    def test_streamed_bytes(self, capsys, tmp_path, factors, pretty):
        spec = make_group(make_context(2, 6), factors)
        path = write(tmp_path, "g.json", group_file_to_obj(spec))
        flags = ["--pretty"] if pretty else []
        code, out, _ = run(capsys, "char-table", "--group", path, *flags)
        assert (code, out) == (0, self._held_table(spec, pretty))
        out_path = tmp_path / "table.out"
        assert main(["char-table", "--group", path, *flags, "--out", str(out_path)]) == 0
        assert out_path.read_text(encoding="utf-8") == out

    def test_pretty_cells_and_width(self, capsys, tmp_path):
        """--pretty on Z_2 x Z_4 over GF(9): each cell is chi_alpha(x) by
        per-factor exponentiation, right-aligned to the widest cell of the
        table, which the width the command takes from the 4th roots of unity
        must match."""
        spec = make_group(make_context(3, 1), [(2, 1), (4, 1)])
        path = write(tmp_path, "g.json", group_file_to_obj(spec))
        code, out, _ = run(capsys, "char-table", "--group", path, "--pretty")
        cells = [
            [str(character_value_naive(spec, a, x)) for x in spec.elements()]
            for a in spec.elements()
        ]
        width = max(len(c) for row in cells for c in row)
        assert width > 1
        want = "".join("  ".join(c.rjust(width) for c in row) + "\n" for row in cells)
        assert (code, out) == (0, want)

    def test_peak_memory_does_not_grow_with_the_table(self, tmp_path):
        # Z_17^2 over GF(256) has 83521 cells (1.5 MB of JSON), Z_17 has 289.
        # Holding the table took about 230 bytes a cell: 34.7 MB of peak RSS
        # on Z_17^2 against 15.4 MB on Z_17.
        # VmHWM, unlike ru_maxrss, starts afresh at exec instead of carrying
        # over the peak of the forking test process.
        if not os.path.exists("/proc/self/status"):
            pytest.skip("needs /proc/self/status for VmHWM")
        code = (
            "import sys\n"
            "from pathlib import Path\n"
            "from gfharmonic.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "status = Path('/proc/self/status').read_text()\n"
            "print(rc, status.split('VmHWM:')[1].split()[0])\n"
        )
        src = str(Path(gfharmonic.__file__).resolve().parent.parent)
        peaks = []
        for m in (1, 2):
            group = {"context": {"p": 2, "n": 4}, "group": {"factors": [{"d": 17, "m": m}]}}
            argv = ["char-table", "--group", write(tmp_path, "g.json", group)]
            argv += ["--out", str(tmp_path / "table.json")]
            proc = subprocess.run(
                [sys.executable, "-c", code, *argv],
                env=dict(os.environ, PYTHONPATH=src),
                capture_output=True,
                text=True,
                timeout=60,
            )
            rc, peak = map(int, proc.stdout.split())
            assert rc == 0
            peaks.append(peak)
        assert len(json.loads((tmp_path / "table.json").read_text())["table"]) == 289
        assert peaks[1] < 1.15 * peaks[0], peaks


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

    def test_conv_across_groupings_of_the_factors(self, capsys, tmp_path, gf4, z3sq):
        # Z_3 x Z_3 and Z_3^2 list the same elements in the same order.
        pair = make_group(gf4, [(3, 1), (3, 1)])
        f = ScalarFunction.from_exponents(pair, 3, [x * y % 3 for x in range(3) for y in range(3)])
        g = ScalarFunction.delta(z3sq, (1, 2))
        f_path = write(tmp_path, "f.json", scalar_function_to_obj(f))
        g_path = write(tmp_path, "g.json", scalar_function_to_obj(g))
        code, out, err = run(capsys, "conv", "--in", f_path, "--in2", g_path)
        assert (code, err) == (0, "")
        expected = gfharmonic.convolve(f, ScalarFunction(pair, g.values))
        assert out == dumps(scalar_function_to_obj(expected)) + "\n"

    def test_conv_builds_one_field_for_two_tables_over_it(self, capsys, monkeypatch, tmp_path, z3):
        built, build = [], serialize.make_context
        monkeypatch.setattr(serialize, "make_context", lambda *a: built.append(a) or build(*a))
        f = write(tmp_path, "f.json", scalar_function_to_obj(ScalarFunction.delta(z3, (1,))))
        g = write(tmp_path, "g.json", scalar_function_to_obj(ScalarFunction.delta(z3, (2,))))
        code, out, err = run(capsys, "conv", "--in", f, "--in2", g)
        assert (code, err, built) == (0, "", [(2, 1, [1, 1, 1])])
        assert json.loads(out)["values"] == [[1, 0], [0, 0], [0, 0]]

    def test_conv_over_two_fields(self, capsys, monkeypatch, tmp_path, z3):
        # The second table names another field, GF(2^6) or GF(9) by another
        # modulus: it is read over a field of its own, and conv refuses the pair.
        built, build = [], serialize.make_context
        monkeypatch.setattr(serialize, "make_context", lambda *a: built.append(a) or build(*a))
        z2 = make_group(make_context(3, 1), [(2, 1)])
        for first, second in [
            (z3, make_group(make_context(2, 3), [(3, 1)])),
            (z2, make_group(make_context(3, 1, [2, 2, 1]), [(2, 1)])),
        ]:
            f = write(tmp_path, "f.json", scalar_function_to_obj(ScalarFunction.delta(first, (1,))))
            g = write(tmp_path, "g.json", scalar_function_to_obj(ScalarFunction.delta(second, (0,))))
            built.clear()
            code, out, err = run(capsys, "conv", "--in", f, "--in2", g)
            assert (code, out, json.loads(err)["code"], len(built)) == (2, "", "spec-mismatch", 2)
        # A context naming GF(4) with JSON true for n is read, and refused, afresh.
        obj = scalar_function_to_obj(ScalarFunction.delta(z3, (2,)))
        obj["context"]["n"] = True
        f = write(tmp_path, "f.json", scalar_function_to_obj(ScalarFunction.delta(z3, (1,))))
        g = write(tmp_path, "g.json", obj)
        code, out, err = run(capsys, "conv", "--in", f, "--in2", g)
        assert (code, out, json.loads(err)["code"]) == (2, "", "malformed-input")


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

    def test_dual_without_a_square_root_of_the_order(self, capsys, tmp_path, z2z4):
        # bent over GF(9), but |G| = 8 = 2 (mod 3) is not a square
        f = ScalarFunction.from_exponents(z2z4, 4, (0,) * 7 + (1,))
        path = write(tmp_path, "f.json", scalar_function_to_obj(f))
        code, out, err = run(capsys, "dual", "--in", path)
        assert (code, out) == (2, "")
        record = json.loads(err)
        assert (record["code"], record["witness"]) == ("not-quadratic-residue", 2)

    @pytest.mark.parametrize(
        "argv",
        [["bent-check"], ["bent-check", "--pretty"], ["dual"], ["mm"]],
    )
    def test_first_point_off_the_circle(self, capsys, tmp_path, z2z4, argv):
        ctx = z2z4.ctx
        values = [ctx.one] * z2z4.order
        values[3] = values[6] = ctx.g
        f = ScalarFunction(z2z4, tuple(values))
        path = write(tmp_path, "f.json", scalar_function_to_obj(f))
        code, out, err = run(capsys, *argv, "--in", path)
        assert (code, out) == (2, "")
        assert err == (
            '{"code":"not-circle-valued","message":"value at [0, 3] has norm != 1",'
            '"witness":[0,3]}\n'
        )

    def test_mm_output_past_the_work_bound(self, capsys, tmp_path):
        # Z_2^10 -> Z_2^20: 2^20 values, a transform of 2^20 * 40 terms.
        spec = make_group(make_context(3, 1), [(2, 10)])
        f = ScalarFunction.constant(spec, spec.ctx.one)
        path = write(tmp_path, "f.json", scalar_function_to_obj(f))
        code, out, err = run(capsys, "mm", "--in", path)
        assert (code, out) == (2, "")
        record = json.loads(err)
        assert record["code"] == "too-large"
        assert record["witness"] == {"work": (1 << 20) * 40, "max_work": 1 << 25}


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

    def test_exhaustive_budget_checked_before_any_table(self, capsys, monkeypatch, tmp_path, z5sq):
        # 5^25 tables: the comparison used to build them all in a list
        def no_row(*args):
            raise AssertionError("a translation row was built before the budget check")

        monkeypatch.setattr(GroupSpec, "translate_row", no_row)
        path = write(tmp_path, "z5sq.json", group_file_to_obj(z5sq))
        code, out, err = run(capsys, "compare", "--group", path, "--m", "5", "--exhaustive")
        assert (code, out) == (2, "")
        record = json.loads(err)
        assert record["code"] == "budget-exceeded"
        assert record["witness"] == 5**25

    @pytest.mark.parametrize("m", [0, 7])
    def test_exhaustive_order_checked_before_budget(self, capsys, tmp_path, z5sq, m):
        # 7^25 is over the budget too, but 7 does not divide the circle order 5
        path = write(tmp_path, "z5sq.json", group_file_to_obj(z5sq))
        code, _, err = run(capsys, "compare", "--group", path, "--m", str(m), "--exhaustive")
        assert code == 2
        assert json.loads(err)["code"] == "invalid-order"
        assert json.loads(err)["witness"] == m

    @pytest.mark.parametrize("rank, m", [(9, 3), (6, 1)])
    def test_exhaustive_group_order_bounded_before_the_count(
        self, capsys, monkeypatch, tmp_path, rank, m
    ):
        # m^|G| for Z_3^9 has 9392 digits, more than Python will print, and
        # for larger groups the power itself runs away; so |G| is bounded
        # first, as in a search, even when m = 1 gives a single table.
        def no_row(*args):
            raise AssertionError("a translation row was built before the order check")

        monkeypatch.setattr(GroupSpec, "translate_row", no_row)
        obj = {"context": {"p": 2, "n": 1}, "group": {"factors": [{"d": 3, "m": rank}]}}
        path = write(tmp_path, "z3.json", obj)
        code, out, err = run(capsys, "compare", "--group", path, "--m", str(m), "--exhaustive")
        assert (code, out) == (2, "")
        record = json.loads(err)
        assert record["code"] == "too-large"
        assert record["witness"] == {"order": 3**rank, "max_order": 256}

    def test_exhaustive_budget_is_the_search_budget(self, capsys, monkeypatch, z3_group_file):
        argv = ["compare", "--group", z3_group_file, "--m", "3", "--exhaustive"]
        monkeypatch.setattr(bent, "MAX_CANDIDATES", 26)
        code, _, err = run(capsys, *argv)
        assert (code, json.loads(err)["witness"]) == (2, 27)
        monkeypatch.setattr(bent, "MAX_CANDIDATES", 27)
        code, out, _ = run(capsys, *argv)
        assert (code, json.loads(out)["checked"]) == (0, 27)


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

    @pytest.mark.parametrize("pretty", [[], ["--pretty"]])
    def test_first_point_off_the_sphere(self, capsys, tmp_path, z2z4, pretty):
        ctx = z2z4.ctx
        values = [(ctx.one, ctx.zero)] * z2z4.order
        values[3] = values[6] = (ctx.one, ctx.one)
        f = VectorFunction(z2z4, 2, tuple(values))
        path = write(tmp_path, "vf.json", vector_function_to_obj(f))
        code, out, err = run(capsys, "vectorial-check", *pretty, "--in", path)
        assert (code, out) == (2, "")
        assert err == (
            '{"code":"not-on-hypersphere","message":"value at [0, 3] has self-product != 1",'
            '"witness":[0,3]}\n'
        )


class TestParsing:
    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "bent-check", "--in", str(path))
        assert code == 2
        assert json.loads(err)["code"] == "malformed-input"

    @pytest.mark.parametrize("name", ["not-utf8", "deeply-nested"])
    def test_undecodable_file(self, capsys, tmp_path, name):
        # Not UTF-8, and nested past the decoder's recursion limit: both used
        # to exit 1 with a traceback.
        data = {"not-utf8": b"\xff\xfe{}", "deeply-nested": b"[" * 200_000}[name]
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        code, out, err = run(capsys, "bent-check", "--in", str(path))
        assert (code, out) == (2, "")
        record = json.loads(err)
        assert record["code"] == "malformed-input"
        assert record["message"].startswith(f"{path}: ")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["ft", "--in", "{path}"],
            ["conv", "--in", "{bent}", "--in2", "{path}"],
            ["bent-check", "--in", "{path}"],
            ["dual", "--in", "{path}"],
            ["mm", "--in", "{path}"],
            ["vectorial-check", "--in", "{path}"],
            ["compare", "--in", "{path}"],
            ["search", "--group", "{path}", "--d", "3"],
            ["char-table", "--group", "{path}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_overlong_integer_literal(self, capsys, tmp_path, bent_file, argv):
        # Past sys.get_int_max_str_digits() digits the decoder raises a plain
        # ValueError, which used to exit 1 with a traceback.
        digits = "7" * (sys.get_int_max_str_digits() + 1)
        path = tmp_path / "overlong.json"
        path.write_text('{"context": {"p": ' + digits + ', "n": 1}}', encoding="utf-8")
        argv = [a.format(path=path, bent=bent_file) for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        record = json.loads(err)
        assert record["code"] == "malformed-input"
        assert record["message"].startswith(f"{path}: ")
        assert len(err) < 1024

    def test_input_bound(self, capsys, monkeypatch, tmp_path):
        # A file exactly at the bound parses; one byte more is refused unread.
        path = tmp_path / "f.json"
        path.write_bytes((GOLDEN / "in" / "f.json").read_bytes())
        size = path.stat().st_size
        monkeypatch.setattr(serialize, "MAX_INPUT_BYTES", size)
        assert run(capsys, "ft", "--in", str(path))[:2] == (0, golden_bytes("ft", "out").decode())
        path.write_bytes(path.read_bytes() + b" ")
        code, out, err = run(capsys, "ft", "--in", str(path))
        assert (code, out) == (2, "")
        record = json.loads(err)
        assert record["code"] == "too-large"
        assert record["message"].startswith(f"{path}: ")
        assert record["witness"] == {"bytes": size + 1, "max_bytes": size}

    @pytest.mark.skipif(not os.path.exists("/dev/fd"), reason="no /dev/fd")
    def test_input_bound_on_a_pipe(self, monkeypatch):
        # A pipe has no size to check first, so the read itself is bounded.
        monkeypatch.setattr(serialize, "MAX_INPUT_BYTES", 10)
        r, w = os.pipe()
        try:
            os.write(w, b"[" + b"0," * 100 + b"0]")
            os.close(w)
            with pytest.raises(TooLarge) as info:
                serialize.read_json(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert info.value.witness == {"bytes": 11, "max_bytes": 10}

    def test_input_bound_in_a_process(self, tmp_path):
        # A sparse file one byte past the real bound takes no disk space.
        path = tmp_path / "sparse.json"
        with open(path, "wb") as fh:
            fh.truncate(serialize.MAX_INPUT_BYTES + 1)
        src = str(Path(gfharmonic.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "gfharmonic", "ft", "--in", str(path)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        record = json.loads(proc.stderr)
        assert record["code"] == "too-large"
        assert record["witness"] == {"bytes": (1 << 26) + 1, "max_bytes": 1 << 26}

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

    def test_field_element_witness_is_its_coefficient_list(self, capsys, monkeypatch, gf16):
        def raising(args):
            raise SpecMismatch("operands belong to different fields", witness=gf16.g)

        monkeypatch.setattr(cli, "_cmd_field_info", raising)
        record = self._record(capsys, "field-info", "--p", "2", "--n", "2")
        assert record["code"] == "spec-mismatch"
        assert record["witness"] == [0, 1, 0, 0]

    @pytest.mark.parametrize(
        "argv, head",
        [
            (["field-info", "--p", "7" * 5001, "--n", "1"], "7" * 200),
            (["search", "--group", "g.json", "--d", "3", "--max-candidates", "9" * 5000], "9" * 200),
            (["field-info", "--p", "2", "--n", "1", "--modulus", "1," * 2500 + "x"], "1," * 100),
            (["field-info", "--p", "2", "--n", "1", "x" * 5000], "x" * 200),
            (["y" * 5000], "'" + "y" * 199),
        ],
        ids=["int-flag", "budget-flag", "modulus-flag", "unknown-argument", "unknown-command"],
    )
    def test_echoed_token_is_bounded(self, capsys, argv, head):
        # A hostile token is echoed as its first 200 characters and its length;
        # unbounded, field-info --p echoed 5001 digits twice in 10082 bytes.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert len(err.encode()) < 1024
        record = json.loads(err)
        assert record["code"] == "malformed-input"
        assert record["witness"].startswith(head + "... (")
        assert record["witness"].endswith(" characters)")

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

    @pytest.mark.parametrize("modulus", ["1,1,3", "1,-1,1"])
    def test_non_canonical_modulus_flag(self, capsys, modulus):
        record = self._record(capsys, "field-info", "--p", "2", "--n", "1", "--modulus", modulus)
        assert record["code"] == "malformed-input"
        assert record["witness"] == [int(c) for c in modulus.split(",")]

    @pytest.mark.parametrize("p, n, q", [("2", "30", 2**60), ("1000000007", "1", 1000000007**2)])
    def test_field_too_large(self, capsys, p, n, q):
        record = self._record(capsys, "field-info", "--p", p, "--n", n)
        assert record["code"] == "too-large"
        assert record["witness"] == {"q": q, "max_q": 65536}

    def test_non_canonical_modulus_in_file(self, capsys, tmp_path):
        context = {"p": 2, "n": 1, "modulus": [1, 1, 3]}
        obj = {"context": context, "group": {"factors": [{"d": 3, "m": 1}]}}
        path = write(tmp_path, "mod3.json", obj)
        record = self._record(capsys, "char-table", "--group", path)
        assert record["code"] == "malformed-input"
        assert record["witness"] == [1, 1, 3]

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("modulus", [[1, 2, 1], [1, 1, 2]])
    def test_modulus_range_checked_before_construction(self, capsys, tmp_path, modulus, source):
        # Reduced mod 2 these read [1, 0, 1] (reducible) and [1, 1, 0] (not
        # monic); the record names the list as given.
        if source == "flag":
            argv = ["field-info", "--p", "2", "--n", "1", "--modulus", ",".join(map(str, modulus))]
        else:
            context = {"p": 2, "n": 1, "modulus": modulus}
            obj = {"context": context, "group": {"factors": [{"d": 3, "m": 1}]}}
            argv = ["char-table", "--group", write(tmp_path, "mod.json", obj)]
        record = self._record(capsys, *argv)
        assert record["code"] == "malformed-input"
        assert record["witness"] == modulus

    def test_compare_tolerance_flag_is_gone(self, capsys, z3_group_file):
        argv = ["compare", "--group", z3_group_file, "--m", "3", "--exhaustive", "--tol", "0.1"]
        record = self._record(capsys, *argv)
        assert record["code"] == "malformed-input"
        assert record["witness"] == "--tol 0.1"

    @pytest.mark.parametrize("command", ["ft", "ift", "mm", "dual", "conv"])
    def test_json_only_commands_reject_pretty(self, capsys, command):
        # These five print JSON only, so --pretty is an unknown flag there.
        argv = [command, "--in", "f.json", "--pretty"]
        if command == "conv":
            argv += ["--in2", "g.json"]
        record = self._record(capsys, *argv)
        assert record["code"] == "malformed-input"
        assert record["witness"] == "--pretty"

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--group", "{path}", "--d", "1"],
            ["compare", "--group", "{path}", "--m", "1", "--exhaustive"],
            ["ft", "--in", "{path}"],
            ["bent-check", "--in", "{path}"],
        ],
    )
    def test_group_order_bounded_before_it_is_formed(self, capsys, tmp_path, argv):
        # |G| = 3^10000 has 4772 digits, more than Python will print.
        obj = {
            "context": {"p": 2, "n": 1},
            "group": {"factors": [{"d": 3, "m": 10000}]},
            "values": [],
        }
        path = write(tmp_path, "huge.json", obj)
        record = self._record(capsys, *(a.format(path=path) for a in argv))
        assert record["code"] == "too-large"
        assert record["witness"] == {"log2_order": 15849.63, "max_log2_order": 24}

    @pytest.mark.parametrize("command", ["char-table", "conv"])
    def test_quadratic_work_bounded_before_any_row(self, tmp_path, command):
        # Z_257^2 over GF(2^16): 66049 elements, 66049^2 terms.  Unbounded,
        # char-table ran until it was killed.
        group = {"context": {"p": 2, "n": 8}, "group": {"factors": [{"d": 257, "m": 2}]}}
        if command == "char-table":
            argv = ["char-table", "--group", write(tmp_path, "g.json", group)]
        else:
            path = write(tmp_path, "f.json", {**group, "values": [[0] * 16] * 257**2})
            argv = ["conv", "--in", path, "--in2", path]
        src = str(Path(gfharmonic.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "gfharmonic", *argv],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        record = json.loads(proc.stderr)
        assert record["code"] == "too-large"
        assert record["witness"] == {"work": 257**4, "max_work": 1 << 25}

    def test_search_group_too_large(self, capsys, tmp_path, gf4):
        path = write(tmp_path, "z3pow6.json", group_file_to_obj(make_group(gf4, [(3, 6)])))
        record = self._record(capsys, "search", "--group", path, "--d", "1")
        assert record["code"] == "too-large"
        assert record["witness"] == {"order": 729, "max_order": 256}


class TestModuleEntryPoint:
    def test_python_m_in_process(self, monkeypatch, capsys):
        """`python -m gfharmonic` runs __main__.py, which exits with main's code."""
        monkeypatch.setattr(sys, "argv", ["gfharmonic", "field-info", "--p", "2", "--n", "1"])
        with pytest.raises(SystemExit) as info:
            runpy.run_module("gfharmonic", run_name="__main__")
        assert info.value.code == 0
        assert json.loads(capsys.readouterr().out)["q"] == 4


GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def golden_bytes(name, suffix):
    path = GOLDEN / f"{name}.{suffix}"
    return path.read_bytes() if path.exists() else b""


class TestGolden:
    """stdout, stderr and exit code of small commands, byte for byte as
    recorded in tests/golden/; the inputs are in tests/golden/in/."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_output_bytes(self, capsys, monkeypatch, name):
        case = GOLDEN_CASES[name]
        monkeypatch.chdir(GOLDEN)
        code, out, err = run(capsys, *shlex.split(case["args"]))
        assert code == case["exit"]
        assert out.encode() == golden_bytes(name, "out")
        assert err.encode() == golden_bytes(name, "err")

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_out_file_bytes(self, capsys, monkeypatch, tmp_path, name):
        # --out holds exactly what stdout would; an error writes no file.
        case = GOLDEN_CASES[name]
        monkeypatch.chdir(GOLDEN)
        out_path = tmp_path / "out.txt"
        code, out, err = run(capsys, *shlex.split(case["args"]), "--out", str(out_path))
        assert (code, out, err.encode()) == (case["exit"], "", golden_bytes(name, "err"))
        if code == 2:
            assert not out_path.exists()
        else:
            assert out_path.read_bytes() == golden_bytes(name, "out")


class TestImports:
    """What a fresh interpreter loads to run subcommands: no package module
    a command does not use, no dataclasses, and no process pool unless a
    search is big enough for workers."""

    POOL = {"concurrent.futures", "multiprocessing"}
    WATCHED = POOL | {"dataclasses"}

    def _modules_loaded(self, *argvs):
        """Import gfharmonic in a fresh interpreter and run cli.main on each
        argv; the exit codes, and the gfharmonic modules and watched standard
        modules loaded after start-up."""
        code = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import gfharmonic\n"
            f"if {argvs!r}:\n"
            "    import gfharmonic.cli\n"
            f"rcs = [gfharmonic.cli.main(argv) for argv in {argvs!r}]\n"
            f"watched = {sorted(self.WATCHED)!r}\n"
            "new = sorted(m for m in set(sys.modules) - before\n"
            "             if m.partition('.')[0] == 'gfharmonic' or m in watched)\n"
            "print(json.dumps([rcs, new]))\n"
        )
        src = str(Path(gfharmonic.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_import_loads_no_submodule(self):
        assert self._modules_loaded() == [[], ["gfharmonic"]]

    def test_serial_commands_do_not_load_the_process_pool(self):
        rcs, loaded = self._modules_loaded(["field-info", "--p", "2", "--n", "1"])
        assert rcs == [0]
        assert not self.POOL & set(loaded)

    def test_small_parallel_search_does_not_load_the_process_pool(self, tmp_path, z5):
        # 125 normalized tables: far too few to pay for a worker
        path = write(tmp_path, "z5.json", group_file_to_obj(z5))
        argv = ["search", "--group", path, "--d", "5", "--jobs", "2"]
        rcs, loaded = self._modules_loaded(argv)
        assert rcs == [0]
        assert not self.POOL & set(loaded)

    @pytest.mark.parametrize(
        "command, modules",
        [
            ("field-info", []),
            ("char-table", ["group"]),
            ("ft", ["characters", "fourier", "group"]),
            ("ift", ["characters", "fourier", "group"]),
            ("conv", ["characters", "fourier", "group"]),
            ("bent-check", ["bent", "characters", "fourier", "group"]),
            ("mm", ["bent", "characters", "fourier", "group"]),
            ("dual", ["bent", "characters", "fourier", "group"]),
            ("search", ["bent", "characters", "fourier", "group"]),
            ("compare", ["bent", "characters", "classical", "fourier", "group"]),
            ("vectorial-check", ["bent", "characters", "fourier", "group", "vectorial"]),
        ],
    )
    def test_subcommand_loads_only_its_modules(
        self, tmp_path, z3, bent_file, z3_group_file, command, modules
    ):
        vf = VectorFunction.from_scalar(ScalarFunction.from_exponents(z3, 3, [0, 1, 1]), 2)
        vf_file = write(tmp_path, "vf.json", vector_function_to_obj(vf))
        args = {
            "field-info": ["--p", "2", "--n", "1"],
            "char-table": ["--group", z3_group_file],
            "conv": ["--in", bent_file, "--in2", bent_file],
            "search": ["--group", z3_group_file, "--d", "3"],
            "compare": ["--group", z3_group_file, "--m", "3", "--exhaustive"],
            "vectorial-check": ["--in", vf_file],
        }.get(command, ["--in", bent_file])
        rcs, loaded = self._modules_loaded([command, *args])
        assert rcs == [0]
        base = ["cli", "errors", "field", "serialize"]
        assert loaded == ["gfharmonic"] + [f"gfharmonic.{m}" for m in sorted(base + modules)]


# A deep-nesting marker, spliced in as text after dumps, which would recurse.
_DEEP, _DEPTHS = "__deep__", (50, 900, 100_000)
_ERROR_CODES = {
    cls.code
    for cls in vars(gfharmonic.errors).values()
    if isinstance(cls, type) and issubclass(cls, gfharmonic.HarmonicError)
} | {"io-error"}
_FUZZ_SOURCES = {
    path.name: json.loads(path.read_text(encoding="utf-8"))
    for path in sorted((GOLDEN / "in").glob("*.json"))
    if path.name != "truncated.json"
}


def _sites(obj, path=()):
    """The path of every value inside obj, obj's own included."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _sites(value, path + (key,))


_ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.integers(-300, 300),
    st.sampled_from([2**31, 2**64, 10**100, -(2**64), -(10**100)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([[], {}, [[]], {"d": 3}, [0] * 20_000]),
).map(copy.deepcopy)


@st.composite
def _mutated_file(draw):
    """The text of a golden input after one to three mutations: a dropped or
    renamed key, a value of another type, a huge or negative int, a float or
    NaN, deep nesting, or a long array."""
    obj = json.loads(json.dumps(_FUZZ_SOURCES[draw(st.sampled_from(sorted(_FUZZ_SOURCES)))]))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_sites(obj))[1:] or [()]))
        if not path:
            obj = draw(_ODD_VALUES)
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        kind = draw(st.sampled_from(["drop", "rename", "replace", "long", "deep"]))
        key = path[-1]
        if kind == "drop":
            del parent[key]
        elif kind == "rename" and isinstance(parent, dict):
            parent[key + draw(st.sampled_from(["_", "X", " "]))] = parent.pop(key)
        elif kind == "long":
            # A container is only doubled, so later mutations visit few sites.
            nested = isinstance(parent[key], (dict, list))
            parent[key] = [parent[key]] * (2 if nested else draw(st.sampled_from([2, 1000])))
        elif kind == "deep":
            parent[key] = _DEEP + str(draw(st.sampled_from(_DEPTHS)))
        else:
            parent[key] = draw(_ODD_VALUES)
    text = json.dumps(obj)
    for k in _DEPTHS:
        text = text.replace(f'"{_DEEP}{k}"', "[" * k + "]" * k)
    return text


class TestExitContract:
    """Every subcommand that reads a file, on mutated golden inputs: exit 0,
    1 or 2, and on 2 an empty stdout and one error record on stderr."""

    @settings(
        max_examples=80,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(text=_mutated_file(), d=st.integers(1, 4))
    def test_mutated_inputs(self, tmp_path, text, d):
        path = tmp_path / "mutant.json"
        path.write_text(text, encoding="utf-8")
        f = str(path)
        argvs = [[c, "--in", f] for c in ("ft", "ift", "bent-check", "mm", "dual")]
        argvs += [
            ["conv", "--in", f, "--in2", f],
            ["vectorial-check", "--in", f],
            ["compare", "--in", f],
            ["compare", "--group", f, "--m", str(d), "--exhaustive"],
            ["search", "--group", f, "--d", str(d), "--max-candidates", "10000"],
            ["char-table", "--group", f],
        ]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bent, "MAX_CANDIDATES", 10_000)
            for argv in argvs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 1, 2), argv
                if code == 2:
                    assert out.getvalue() == "", argv
                    line, newline, rest = err.getvalue().partition("\n")
                    assert (newline, rest) == ("\n", ""), argv
                    record = json.loads(line)
                    assert record["code"] in _ERROR_CODES, argv
                    assert list(record) == ["code", "message", "witness"], argv
