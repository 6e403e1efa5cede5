"""The benchmark's workloads: seeded inputs, timed operations and their checks.

A workload's set-up builds its field contexts, groups and inputs from a
seeded `random.Random`, makes one untimed warm-up call per group so lazy
caches are filled, and returns the operations of one round in a seeded
order.  An operation is one call into a public function of the library, or
one cold `gfharmonic` process.  Its check runs outside the timed region and
verifies the output on a route independent of the call: an inverse
transform, the other bentness criterion, a closed form, the reference
character path, the double-sum oracle in tests/_oracles.py, or the
library's own serialization for CLI output.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import gfharmonic as gh
from gfharmonic import serialize as ser
from gfharmonic.characters import character_value_naive
from _oracles import naive_ft


@dataclass
class Op:
    label: str  # names the operation; a round may hold several copies of one
    span: str  # the "<module>.<function>" boundary the call crosses
    call: Callable[[], Any]
    check: Callable[[Any], bool]  # independent-route verification of the output
    inputs: tuple = ()  # what the input digest covers
    counts: Callable[[Any], dict] = lambda result: {}


@dataclass
class Workload:
    ops: list[Op]
    known_defects: dict[str, str] = field(default_factory=dict)  # label -> reason


def _ctx(tr, p, n):
    return tr.call("field.make_context", gh.make_context, p, n)


def _grp(tr, ctx, factors):
    return tr.call("group.make_group", gh.make_group, ctx, factors)


def _warm(tr, fn, *args):
    return tr.call("setup.warmup", fn, *args)


def _terms(spec):
    n = spec.order * spec.order
    return lambda result: {"fourier.terms": n}


def _circle(rng, spec, d=None):
    """Random table G -> circle subgroup of order d (default: the whole circle)."""
    d = d or spec.ctx.circle_order
    return gh.ScalarFunction.from_exponents(
        spec, d, [rng.randrange(d) for _ in range(spec.order)]
    )


def _field_table(rng, spec):
    ctx = spec.ctx
    return gh.ScalarFunction(
        spec,
        tuple(
            ctx.element([rng.randrange(ctx.p) for _ in range(ctx.width)])
            for _ in range(spec.order)
        ),
    )


def _sphere(rng, spec):
    """Random table G -> GF(q)^2 whose vectors have self-product one."""
    ctx = spec.ctx
    elems = list(ctx.elements())
    by_norm: dict = {}
    for e in elems:
        by_norm.setdefault(e.norm(), []).append(e)
    rows = []
    for _ in range(spec.order):
        a = rng.choice(elems)
        rows.append((a, rng.choice(by_norm[ctx.one - a.norm()])))
    return gh.VectorFunction(spec, 2, tuple(rows))


def _same_verdict(a, b) -> bool:
    """Two bent reports agree on the verdict and on the norm table."""
    return a.is_bent == b.is_bent and tuple(a.spectrum_norms) == tuple(b.spectrum_norms)


def _classical_ok(ef, spectrum, bent: bool) -> bool:
    """Parseval and the trivial character, plus flat magnitudes when bent."""
    n = ef.spec.order
    direct = sum(cmath.exp(2j * math.pi * e / ef.m) for e in ef.exponents)
    energy = sum(abs(v) ** 2 for v in spectrum)
    ok = (
        len(spectrum) == n
        and abs(energy - n * n) <= 1e-6 * n * n
        and abs(spectrum[0] - direct) <= 1e-6 * n
    )
    return ok and (not bent or all(abs(abs(v) ** 2 - n) <= 1e-6 * n for v in spectrum))


def _naive_row(spec, alpha):
    return tuple(character_value_naive(spec, alpha, x) for x in spec.elements())


# -- spectral -------------------------------------------------------------------


def _spectral_ops(rng, tr, name, spec, oracle):
    s = spec.ctx.circle_order
    f = _circle(rng, spec)
    F = _warm(tr, gh.ft, f)  # also fills the exponent-matrix cache
    vf = _sphere(rng, spec)
    ef = gh.ExponentFunction(spec, s, tuple(rng.randrange(s) for _ in range(spec.order)))
    alpha = spec.element_at(rng.randrange(spec.order))
    terms = _terms(spec)
    coords = range(vf.dim)
    P = functools.partial
    return [
        Op(
            f"ft {name}",
            "fourier.ft",
            P(gh.ft, f),
            lambda r: gh.inverse_ft(r) == f and (not oracle or naive_ft(f) == r),
            (f,),
            terms,
        ),
        Op(
            f"inverse_ft {name}",
            "fourier.inverse_ft",
            P(gh.inverse_ft, F),
            lambda r: r == f,
            (F,),
            terms,
        ),
        Op(
            f"is_bent_spectral {name}",
            "bent.is_bent_spectral",
            P(gh.is_bent_spectral, f),
            lambda r: _same_verdict(r, gh.is_bent_autocorr(f)),
            (f,),
        ),
        Op(
            f"character_row {name}",
            "characters.character_row",
            P(gh.character_row, spec, alpha),
            lambda r: r.values == _naive_row(spec, alpha),
            (spec, alpha),
        ),
        Op(
            f"classical_ft {name}",
            "classical.classical_ft",
            P(gh.classical_ft, ef),
            lambda r: _classical_ok(ef, r, bent=False),
            (ef,),
        ),
        Op(
            f"comparison_check {name}",
            "classical.comparison_check",
            P(gh.comparison_check, ef),
            lambda r: r is True,
            (ef,),
        ),
        Op(
            f"md_ft {name}",
            "vectorial.md_ft",
            P(gh.md_ft, vf),
            lambda r: all(
                gh.coordinate_function(r, i) == gh.ft(gh.coordinate_function(vf, i)) for i in coords
            ),
            (vf,),
        ),
        Op(
            f"is_md_bent {name}",
            "vectorial.is_md_bent",
            P(gh.is_md_bent, vf),
            lambda r: _same_verdict(r, gh.is_md_bent_derivative(vf)),
            (vf,),
        ),
    ]


def _product_ops(rng, tr, h, spec):
    """Operations on G = H x H, where the product construction lives.

    The context has p = 2, so |H| = 1 in the field, the dual of a bent table
    is its transform, and the transform of (x, y) -> chi_x(y) g(y) has the
    closed form (a, b) -> g(-a) chi_b(-a).
    """
    d = h.order
    eg = [rng.randrange(d) for _ in range(d)]
    g = gh.ScalarFunction.from_exponents(h, d, eg)
    f = _circle(rng, spec)
    F = _warm(tr, gh.ft, f)
    mm = gh.mm_construct(g)
    ef = gh.ExponentFunction(
        spec, d, tuple((x * y + eg[y]) % d for x in range(d) for y in range(d))
    )
    alpha = spec.element_at(rng.randrange(spec.order))
    one = spec.ctx.from_int(spec.order_mod_p)
    mm_want = tuple(
        character_value_naive(h, (x,), (y,)) * g.values[y] for x in range(d) for y in range(d)
    )
    dual_want = tuple(
        g.values[-a % d] * character_value_naive(h, (b,), (-a % d,))
        for a in range(d)
        for b in range(d)
    )
    terms = _terms(spec)
    name = "Z_17^2"
    P = functools.partial
    return [
        Op(f"ft {name}", "fourier.ft", P(gh.ft, f), lambda r: gh.inverse_ft(r) == f, (f,), terms),
        Op(
            f"inverse_ft {name}",
            "fourier.inverse_ft",
            P(gh.inverse_ft, F),
            lambda r: r == f,
            (F,),
            terms,
        ),
        Op(
            "mm_construct Z_17",
            "bent.mm_construct",
            P(gh.mm_construct, g),
            lambda r: r.spec.dims == spec.dims and r.values == mm_want,
            (g,),
        ),
        Op(
            f"is_bent_spectral {name} (mm)",
            "bent.is_bent_spectral",
            P(gh.is_bent_spectral, mm),
            lambda r: r.is_bent and all(v == one for v in r.spectrum_norms),
            (mm,),
        ),
        Op(
            f"dual_bent {name}",
            "bent.dual_bent",
            P(gh.dual_bent, mm),
            lambda r: r.values == dual_want,
            (mm,),
        ),
        Op(
            f"character_row {name}",
            "characters.character_row",
            P(gh.character_row, spec, alpha),
            lambda r: r.values == _naive_row(spec, alpha),
            (spec, alpha),
        ),
        Op(
            f"classical_ft {name} (mm)",
            "classical.classical_ft",
            P(gh.classical_ft, ef),
            lambda r: _classical_ok(ef, r, bent=True),
            (ef,),
        ),
        Op(
            f"comparison_check {name} (mm)",
            "classical.comparison_check",
            P(gh.comparison_check, ef),
            lambda r: r is True,
            (ef,),
        ),
    ]


def spectral(rng, tr, tmp) -> Workload:
    """Copies per round are chosen from the latencies the operations have on
    the seed commit so that the percentiles fall inside dense clusters, not
    in the gaps between them: p50 among the 4-15 ms transforms on Z_5xZ_13
    and Z_5^3, p90 among the four 0.4-0.6 s transforms on Z_17^2.  The
    Z_17^2 dual and comparison (about 1 s each) form the tail above p90."""
    gf1024, gf4096, gf16, gf256 = (_ctx(tr, 2, n) for n in (5, 6, 2, 4))
    ops = []
    for name, ctx, factors, copies in [
        ("Z_3xZ_11", gf1024, [(3, 1), (11, 1)], 1),
        ("Z_5xZ_13", gf4096, [(5, 1), (13, 1)], 2),
        ("Z_5^3", gf16, [(5, 3)], 1),
    ]:
        spec = _grp(tr, ctx, factors)
        ops += _spectral_ops(rng, tr, name, spec, oracle=spec.order < 100) * copies
    ops += _product_ops(rng, tr, _grp(tr, gf256, [(17, 1)]), _grp(tr, gf256, [(17, 2)]))
    rng.shuffle(ops)
    return Workload(ops)


# -- census ---------------------------------------------------------------------

# (name, p, n, factors, d, bent tables expected, copies at jobs=1 and jobs=2)
# Z_3's 27 candidates take well under a millisecond serially, so jobs=2
# measures pool start-up almost alone.  The copies put p50 in the middle of
# the serial Z_5 searches (20-25 ms; at jobs=2 they take 25-40 ms, which
# moves with the load on the second CPU) and p90 among the serial Z_3^2
# searches (0.2-0.25 s), which overlap only the Z_2xZ_4 search at jobs=2.
CENSUS = [
    ("Z_3", 2, 1, [(3, 1)], 3, 18, (4, 5)),
    ("Z_5", 2, 2, [(5, 1)], 5, 100, (12, 4)),
    ("Z_3^2", 2, 1, [(3, 2)], 3, 2916, (3, 1)),
    ("Z_2xZ_4", 3, 1, [(2, 1), (4, 1)], 4, 1408, (1, 1)),
]


def _census_reference_ok(spec, d, expected, ref) -> bool:
    """Count, candidate total, and the spectral criterion on a sample of the
    tables found and of the tables rejected (the search uses the derivative
    criterion)."""
    if ref.candidates != d**spec.order or ref.count != expected:
        return False
    found = set(ref.tables)
    step = max(1, len(ref.tables) // 6)
    rejected = itertools.islice(
        (e for e in itertools.product(range(d), repeat=spec.order) if e not in found), 0, None, 7
    )

    def bent(e):
        return gh.is_bent_spectral(gh.ScalarFunction.from_exponents(spec, d, e)).is_bent

    return all(bent(e) for e in ref.tables[::step] + ref.tables[-1:]) and not any(
        bent(e) for e in itertools.islice(rejected, 6)
    )


def census(rng, tr, tmp) -> Workload:
    ctxs = {}
    ops = []
    for name, p, n, factors, d, expected, copies_at in CENSUS:
        if (p, n) not in ctxs:
            ctxs[p, n] = _ctx(tr, p, n)
        spec = _grp(tr, ctxs[p, n], factors)
        ref = _warm(tr, gh.search_bent, spec, d)
        verified = functools.cache(functools.partial(_census_reference_ok, spec, d, expected, ref))
        for jobs, copies in zip((1, 2), copies_at):
            for _ in range(copies):
                ops.append(
                    Op(
                        f"search {name} d={d} jobs={jobs}",
                        "bent.search",
                        functools.partial(gh.search_bent, spec, d, jobs=jobs),
                        lambda r, ref=ref, verified=verified: r == ref and verified(),
                        (spec, d, jobs),
                        lambda r: {"bent.candidates": r.candidates, "bent.bent_found": r.count},
                    )
                )
    rng.shuffle(ops)
    return Workload(ops)


# -- cli ------------------------------------------------------------------------


def _cli_env(tmp: Path) -> dict:
    src = Path(gh.__file__).resolve().parent.parent
    return dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(tmp))


def _run(argv, cwd, env):
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _cli_check(want, result) -> bool:
    """`want` is ("ok", exit code, stdout bytes), ("error", record code) or
    ("defect",): an input the documented contract answers with exit 2 and a
    structured record."""
    rc, out, err = result
    if want[0] == "ok":
        return rc == want[1] and out == want[2]
    if rc != 2 or out:
        return False
    try:
        record = json.loads(err.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        return False
    if not isinstance(record, dict) or set(record) != {"code", "message", "witness"}:
        return False
    return want[0] == "defect" or record["code"] == want[1]


def _json_line(obj) -> bytes:
    return (ser.dumps(obj) + "\n").encode()


def _report_obj(report) -> dict:
    return {
        "is_bent": report.is_bent,
        "spectrum_norms": [ser.element_to_obj(v) for v in report.spectrum_norms],
        "failing_points": [list(x) for x in report.failing_points],
    }


def _want_field_info(p, n):
    ctx = gh.make_context(p, n)
    obj = ser.context_to_obj(ctx)
    obj.update(
        q=ctx.q,
        sqrt_q=ctx.sqrt_q,
        circle_order=ctx.circle_order,
        g=ser.element_to_obj(ctx.g),
        u=ser.element_to_obj(ctx.u),
    )
    return ("ok", 0, _json_line(obj))


def _want_char_table(spec):
    table = [
        [ser.element_to_obj(v) for v in gh.character_row(spec, a).values] for a in spec.elements()
    ]
    obj = {"context": ser.context_to_obj(spec.ctx), "group": ser.group_to_obj(spec), "table": table}
    return ("ok", 0, _json_line(obj))


def _want_table(fn, *args):
    return ("ok", 0, _json_line(ser.scalar_function_to_obj(fn(*args))))


def _want_verdict(report, extra=None):
    obj = _report_obj(report)
    obj.update(extra or {})
    return ("ok", 0 if report.is_bent else 1, _json_line(obj))


def _want_bent_check(f):
    return _want_verdict(gh.is_bent_spectral(f))


def _want_search(spec, d):
    r = gh.search_bent(spec, d)
    obj = {
        "context": ser.context_to_obj(spec.ctx),
        "group": ser.group_to_obj(spec),
        "d": r.d,
        "candidates": r.candidates,
        "count": r.count,
        "bent": [list(e) for e in r.tables],
    }
    return ("ok", 0, _json_line(obj))


def _want_compare(spec, m):
    efs = [gh.ExponentFunction(spec, m, e) for e in itertools.product(range(m), repeat=spec.order)]
    bad = [list(ef.exponents) for ef in efs if not gh.comparison_check(ef)]
    obj = {
        "checked": len(efs),
        "classical_bent": sum(gh.is_classical_bent(ef) for ef in efs),
        "counterexamples": bad,
    }
    return ("ok", 0 if not bad else 1, _json_line(obj))


def _want_vectorial(vf):
    report = gh.is_md_bent(vf)
    agrees = gh.is_md_bent_derivative(vf).is_bent == report.is_bent
    return _want_verdict(report, {"derivative_agrees": agrees})


KNOWN_DEFECTS = {
    "field-info --p 2 --n 0": "ROADMAP item 4: n = 0 exits 1 with a traceback, not 2 with a record",
    'char-table "m": 0': "ROADMAP item 4: multiplicity 0 exits 1 with a traceback, "
    "not 2 with a record",
    'ft "p": "x"': "ROADMAP item 4: a non-integer p exits 1 with a traceback, not 2 with a record",
}


def cli(rng, tr, tmp) -> Workload:
    gf4, gf16 = _ctx(tr, 2, 1), _ctx(tr, 2, 2)
    z3 = _grp(tr, gf4, [(3, 1)])
    z3sq = _grp(tr, gf4, [(3, 2)])
    z5 = _grp(tr, gf16, [(5, 1)])
    z5sq = _grp(tr, gf16, [(5, 2)])
    f, g, spectrum = (_field_table(rng, z5sq) for _ in range(3))
    lift = _circle(rng, z5)
    bent = gh.mm_construct(_circle(rng, z5))
    flat = _circle(rng, z5sq)
    vbent = gh.VectorFunction.from_scalar(bent, 2)
    scalar = (ser.scalar_function_to_obj, ser.scalar_function_from_obj)
    vector = (ser.vector_function_to_obj, ser.vector_function_from_obj)
    group = (ser.group_file_to_obj, ser.group_from_file_obj)
    files = {}
    for fname, value, (writer, reader) in [
        ("f.json", f, scalar),
        ("g.json", g, scalar),
        ("spectrum.json", spectrum, scalar),
        ("lift.json", lift, scalar),
        ("bent.json", bent, scalar),
        ("flat.json", flat, scalar),
        ("vbent.json", vbent, vector),
        ("z3.json", z3, group),
        ("z3sq.json", z3sq, group),
        ("z5.json", z5, group),
    ]:
        text = tr.call("serialize.encode", lambda: ser.dumps(writer(value)))
        if tr.call("serialize.decode", lambda: reader(json.loads(text))) != value:
            raise RuntimeError(f"{fname} does not round-trip through serialize")
        files[fname] = text.encode() + b"\n"
    bad_f = json.loads(files["f.json"])
    bad_f["context"]["p"] = "x"
    files.update(
        {
            "malformed.json": files["f.json"][: len(files["f.json"]) // 2],
            "inadmissible.json": _json_line(
                {"context": {"p": 2, "n": 1}, "group": {"factors": [{"d": 7, "m": 1}]}}
            ),
            "m0.json": _json_line(
                {"context": {"p": 2, "n": 1}, "group": {"factors": [{"d": 3, "m": 0}]}}
            ),
            "px.json": _json_line(bad_f),
        }
    )
    for fname, data in files.items():
        (tmp / fname).write_bytes(data)

    # (label, arguments, expected outcome, computed lazily at the first check)
    # The two slowest processes run twice per round, so that p90 falls among
    # their runs and not between them and the rest.
    cases = [
        ("field-info GF(4)", "field-info --p 2 --n 1", lambda: _want_field_info(2, 1)),
        ("field-info GF(4096)", "field-info --p 2 --n 6", lambda: _want_field_info(2, 6)),
        ("char-table", "char-table --group z5.json", lambda: _want_char_table(z5)),
        ("ft", "ft --in f.json", lambda: _want_table(gh.ft, f)),
        ("ift", "ift --in spectrum.json", lambda: _want_table(gh.inverse_ft, spectrum)),
        ("conv", "conv --in f.json --in2 g.json", lambda: _want_table(gh.convolve, f, g)),
        ("bent-check bent", "bent-check --in bent.json", lambda: _want_bent_check(bent)),
        ("bent-check flat", "bent-check --in flat.json", lambda: _want_bent_check(flat)),
        ("mm", "mm --in lift.json", lambda: _want_table(gh.mm_construct, lift)),
        ("dual", "dual --in bent.json", lambda: _want_table(gh.dual_bent, bent)),
        ("search --jobs 2", "search --group z5.json --d 5 --jobs 2", lambda: _want_search(z5, 5)),
        ("compare", "compare --group z3.json --m 3 --exhaustive", lambda: _want_compare(z3, 3)),
        ("vectorial-check bent", "vectorial-check --in vbent.json", lambda: _want_vectorial(vbent)),
        ("error non-prime p", "field-info --p 4 --n 1", lambda: ("error", "non-prime")),
        (
            "error inadmissible factor",
            "char-table --group inadmissible.json",
            lambda: ("error", "inadmissible-factor"),
        ),
        (
            "error budget exceeded",
            "search --group z3sq.json --d 3 --max-candidates 1000",
            lambda: ("error", "budget-exceeded"),
        ),
        ("error malformed JSON", "ft --in malformed.json", lambda: ("error", "malformed-input")),
        ("field-info --p 2 --n 0", "field-info --p 2 --n 0", lambda: ("defect",)),
        ('char-table "m": 0', "char-table --group m0.json", lambda: ("defect",)),
        ('ft "p": "x"', "ft --in px.json", lambda: ("defect",)),
    ]
    env = _cli_env(tmp)
    prog = [sys.executable, "-m", "gfharmonic"]
    _warm(tr, _run, prog + cases[0][1].split(), tmp, env)
    twice = {"field-info GF(4096)", "search --jobs 2"}
    ops = []
    for label, args, want in cases:
        argv = args.split()
        read = [files[a] for a in argv if a in files]
        bytes_in = sum(map(len, read))
        op = Op(
            label,
            "cli.proc",
            functools.partial(_run, prog + argv, tmp, env),
            lambda r, want=functools.cache(want): _cli_check(want(), r),
            (argv, read),
            lambda r, n=bytes_in: {"serialize.bytes_in": n, "serialize.bytes_out": len(r[1])},
        )
        ops += [op] * (2 if label in twice else 1)
    rng.shuffle(ops)
    return Workload(ops, known_defects=dict(KNOWN_DEFECTS))


def cli_probes(tracer, tmp: Path) -> dict:
    """Bare interpreter start and `import gfharmonic`: median of five cold
    processes each."""
    env = _cli_env(tmp)
    times = {}
    for key, code in [("interpreter", "pass"), ("import", "import gfharmonic")]:
        runs = []
        for _ in range(5):
            idx = tracer.open(f"cli.{key}", 0, key)
            t0 = time.perf_counter()
            _run([sys.executable, "-c", code], tmp, env)
            runs.append((time.perf_counter() - t0) * 1e3)
            tracer.close(idx)
        times[key] = statistics.median(runs)
    return {
        "cli.interpreter_ms": times["interpreter"],
        "cli.import_ms": times["import"] - times["interpreter"],
    }


SETUPS = {"spectral": spectral, "census": census, "cli": cli}


def canonical(x):
    """Plain-data form of an input, for the input digest."""
    if isinstance(x, gh.GroupSpec):
        return ("G", x.ctx.p, x.ctx.n, x.ctx.modulus, x.factors)
    if isinstance(x, gh.ScalarFunction):
        return ("S", canonical(x.spec), tuple(v.coeffs for v in x.values))
    if isinstance(x, gh.VectorFunction):
        return ("V", canonical(x.spec), tuple(tuple(v.coeffs for v in vec) for vec in x.values))
    if isinstance(x, gh.ExponentFunction):
        return ("E", canonical(x.spec), x.m, x.exponents)
    if isinstance(x, (list, tuple)):
        return tuple(canonical(v) for v in x)
    return x
