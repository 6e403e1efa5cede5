"""Acceptance suite: each test prints one pass/fail line for its criterion.

All algebraic identities are checked with exact equality (zero tolerance),
the classical side of the bridge included.
"""

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gfharmonic
from gfharmonic import (
    ExponentFunction,
    ScalarFunction,
    VectorFunction,
    character_row,
    convolve,
    coordinate_function,
    dual_bent,
    embed,
    ft,
    inner_product,
    inverse_ft,
    is_bent_autocorr,
    is_bent_spectral,
    is_classical_bent,
    is_md_bent,
    is_md_bent_derivative,
    make_context,
    make_group,
    md_ft,
    mm_construct,
    norm_l,
    parseval_check,
    plancherel_check,
)
from gfharmonic import bent
from gfharmonic.serialize import dumps, group_file_to_obj
from _oracles import random_circle_function, random_function


def report(name, ok, elapsed):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {verdict} ({elapsed:.2f}s)")
    assert ok, name


@pytest.fixture(scope="module")
def contexts():
    gf4 = make_context(2, 1)
    gf16 = make_context(2, 2)
    gf9 = make_context(3, 1)
    return {
        "Z3/GF(4)": make_group(gf4, [(3, 1)]),
        "Z5/GF(16)": make_group(gf16, [(5, 1)]),
        "Z4/GF(9)": make_group(gf9, [(4, 1)]),
        "Z5^2/GF(16)": make_group(gf16, [(5, 2)]),
    }


def test_criterion_1_orthogonality(contexts):
    t0 = time.perf_counter()
    ok = True
    for spec in contexts.values():
        ctx = spec.ctx
        c = ctx.from_int(spec.order_mod_p)
        rows = [character_row(spec, alpha) for alpha in spec.elements()]
        for i, ra in enumerate(rows):
            for j, rb in enumerate(rows):
                expected = c if i == j else ctx.zero
                ok = ok and inner_product(ra, rb) == expected
    elapsed = time.perf_counter() - t0
    report("criterion 1, character orthogonality", ok and elapsed < 1.0, elapsed)


def test_criterion_2_round_trip_and_double_transform(contexts):
    t0 = time.perf_counter()
    ok = True

    def check(f):
        spec = f.spec
        c = spec.ctx.from_int(spec.order_mod_p)
        F = ft(f)
        good = inverse_ft(F) == f
        doubled = ft(F)
        for i, x in enumerate(spec.elements()):
            good = good and doubled.values[i] == c * f.at(spec.neg(x))
        return good

    z3 = contexts["Z3/GF(4)"]
    gf4 = z3.ctx
    pool = list(gf4.circle()) + [gf4.zero]
    for combo in itertools.product(pool, repeat=3):
        ok = ok and check(ScalarFunction(z3, combo))

    rng = random.Random(2024)
    for spec in contexts.values():
        for _ in range(500):
            ok = ok and check(random_function(spec, rng))
    elapsed = time.perf_counter() - t0
    report("criterion 2, round trip and double transform", ok and elapsed < 5.0, elapsed)


def test_criterion_3_trivialization_plancherel_parseval(contexts):
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(3)
    for spec in contexts.values():
        ctx = spec.ctx
        c = ctx.from_int(spec.order_mod_p)
        for _ in range(200):
            f = random_function(spec, rng)
            g = random_function(spec, rng)
            lhs = ft(convolve(f, g)).values
            rhs = tuple(a * b for a, b in zip(ft(f).values, ft(g).values))
            ok = ok and lhs == rhs
            ok = ok and plancherel_check(f, g)
            ok = ok and parseval_check(f)
        for _ in range(20):
            f = random_circle_function(spec, rng)
            total = ctx.zero
            for v in ft(f).values:
                total = total + v.norm()
            ok = ok and total == c * c
    elapsed = time.perf_counter() - t0
    report("criterion 3, trivialization and Plancherel/Parseval", ok, elapsed)


def test_criterion_4_bent_census(contexts):
    t0 = time.perf_counter()
    z3 = contexts["Z3/GF(4)"]
    count = 0
    agree = True
    for e in itertools.product(range(3), repeat=3):
        f = ScalarFunction.from_exponents(z3, 3, e)
        spectral = is_bent_spectral(f).is_bent
        agree = agree and spectral == is_bent_autocorr(f).is_bent
        count += spectral
    elapsed = time.perf_counter() - t0
    report(
        "criterion 4, census of 27 tables has 18 bent with agreeing verdicts",
        count == 18 and agree and elapsed < 1.0,
        elapsed,
    )


def test_criterion_5_product_construction(contexts):
    t0 = time.perf_counter()
    z3 = contexts["Z3/GF(4)"]
    ok = True
    for e in itertools.product(range(3), repeat=3):
        f = mm_construct(ScalarFunction.from_exponents(z3, 3, e))
        ok = ok and is_bent_spectral(f).is_bent and is_bent_autocorr(f).is_bent
    elapsed = time.perf_counter() - t0
    report("criterion 5, product construction bent for all 27 inputs", ok and elapsed < 10.0, elapsed)


def test_criterion_6_classical_implies_field_bent(contexts):
    t0 = time.perf_counter()
    z3 = contexts["Z3/GF(4)"]
    z5 = contexts["Z5/GF(16)"]
    counterexamples = 0
    for e in itertools.product(range(3), repeat=3):
        ef = ExponentFunction(z3, 3, e)
        if is_classical_bent(ef) and not is_bent_spectral(embed(ef)).is_bent:
            counterexamples += 1
    ef = ExponentFunction(z5, 5, tuple(x * x % 5 for x in range(5)))
    if not (is_classical_bent(ef) and is_bent_spectral(embed(ef)).is_bent):
        counterexamples += 1
    elapsed = time.perf_counter() - t0
    report(
        "criterion 6, classical bentness implies field bentness",
        counterexamples == 0,
        elapsed,
    )


def test_criterion_7_duals_are_bent(contexts):
    t0 = time.perf_counter()
    z3 = contexts["Z3/GF(4)"]
    ok = True
    checked = 0
    for e in itertools.product(range(3), repeat=3):
        f = ScalarFunction.from_exponents(z3, 3, e)
        if not is_bent_spectral(f).is_bent:
            continue
        checked += 1
        dual = dual_bent(f)
        ok = ok and is_bent_spectral(dual).is_bent and is_bent_autocorr(dual).is_bent
    elapsed = time.perf_counter() - t0
    report("criterion 7, duals of all 18 bent tables are bent", ok and checked == 18, elapsed)


def test_criterion_8_vectorial(contexts):
    t0 = time.perf_counter()
    z3 = contexts["Z3/GF(4)"]
    ok = True
    rng = random.Random(8)

    for _ in range(100):
        f = random_function(z3, rng)
        lifted = VectorFunction.from_scalar(f, 1)
        ok = ok and [v[0] for v in md_ft(lifted).values] == list(ft(f).values)

    ctx = z3.ctx
    els = list(ctx.elements())
    scale = ctx.from_int(z3.inv_order_mod_p)
    for _ in range(100):
        f = VectorFunction(
            z3, 2, tuple((rng.choice(els), rng.choice(els)) for _ in range(3))
        )
        lhs = ctx.zero
        for vec in f.values:
            lhs = lhs + norm_l(vec)
        rhs = ctx.zero
        for vec in md_ft(f).values:
            rhs = rhs + norm_l(vec)
        ok = ok and lhs == scale * rhs

    for e in itertools.product(range(3), repeat=3):
        f = ScalarFunction.from_exponents(z3, 3, e)
        lifted = VectorFunction.from_scalar(f, 1)
        spectral = is_md_bent(lifted).is_bent
        ok = ok and spectral == is_md_bent_derivative(lifted).is_bent
        ok = ok and spectral == is_bent_spectral(f).is_bent
        if spectral:
            padded = VectorFunction.from_scalar(f, 2)
            ok = ok and is_md_bent(padded).is_bent

    elapsed = time.perf_counter() - t0
    report("criterion 8, vectorial transform and bentness", ok, elapsed)


def test_criterion_9_search_determinism(tmp_path):
    # Z_4^2 with d = 2 has 8192 normalized tables, so --jobs 4 starts a pool
    # of min(4, cpu count, 2) workers.
    gf9 = make_context(3, 1)
    z4sq = make_group(gf9, [(4, 2)])
    assert bent._SearchKernel(z4sq, 2, bent._field_verdict(gf9, 2)).normalized >= 2 * bent.BLOCK
    group_path = tmp_path / "z4sq.json"
    group_path.write_text(dumps(group_file_to_obj(z4sq)) + "\n", encoding="utf-8")
    src = str(Path(gfharmonic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)

    def run(jobs):
        return subprocess.run(
            [
                sys.executable,
                "-m",
                "gfharmonic",
                "search",
                "--group",
                str(group_path),
                "--d",
                "2",
                "--jobs",
                str(jobs),
            ],
            capture_output=True,
            check=True,
            env=env,
        ).stdout

    t0 = time.perf_counter()
    single = run(1)
    single_elapsed = time.perf_counter() - t0
    quad = run(4)
    elapsed = time.perf_counter() - t0
    ok = single == quad and len(single) > 0 and single_elapsed < 30.0
    report("criterion 9, search output byte-identical across workers", ok, elapsed)
