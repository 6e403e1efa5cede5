"""Command-line frontend: JSON in, JSON out, exit codes you can branch on.

Exit status is 0 for success or a true verdict, 1 for a checked-and-false
verdict (e.g. not bent), and 2 for any error, in which case a structured
record {"code", "message", "witness"} is written to stderr.

Each handler parses its input, makes one library call and returns through
`_reply`, the one writer of JSON or --pretty text to stdout or --out;
`char-table` alone streams its rows.  A handler imports the library modules
it runs, so a process loads only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from typing import Callable, Iterable, Optional, Sequence, Union

from . import __version__
from .errors import HarmonicError, MalformedInput
from .field import FieldElement
from .serialize import (
    SCHEMA_VERSION,
    _checked_context,
    context_to_obj,
    dumps,
    element_to_obj,
    exponent_function_from_obj,
    group_file_to_obj,
    group_from_file_obj,
    read_json,
    scalar_function_from_obj,
    scalar_function_to_obj,
    vector_function_from_obj,
)


def _emit(args, text: Union[str, Iterable[str]]) -> None:
    """Write text, or text chunks as they are produced, to --out or stdout."""
    chunks = [text if text.endswith("\n") else text + "\n"] if isinstance(text, str) else text
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _reply(args, code: int, obj, pretty: Optional[Callable[[], str]] = None) -> int:
    """Write pretty() under --pretty, else dumps(obj); return the exit code."""
    _emit(args, pretty() if pretty and args.pretty else dumps(obj))
    return code


def _bent_report_obj(report) -> dict:
    return {
        "is_bent": report.is_bent,
        "spectrum_norms": [element_to_obj(v) for v in report.spectrum_norms],
        "failing_points": [list(x) for x in report.failing_points],
    }


def _cmd_field_info(args) -> int:
    ctx = _checked_context(args.p, args.n, _parse_coeffs(args.modulus), "--modulus")
    obj = {
        **context_to_obj(ctx),
        "q": ctx.q,
        "sqrt_q": ctx.sqrt_q,
        "circle_order": ctx.circle_order,
        "g": element_to_obj(ctx.g),
        "u": element_to_obj(ctx.u),
    }
    lines = [
        f"p = {ctx.p}, n = {ctx.n}, q = {ctx.q}",
        f"sqrt(q) = {ctx.sqrt_q}, circle order = {ctx.circle_order}",
        f"modulus = {list(ctx.modulus)}",
        f"g = {ctx.g} (coeffs {list(ctx.g.coeffs)})",
        f"u = {ctx.u} (coeffs {list(ctx.u.coeffs)})",
    ]
    return _reply(args, 0, obj, lambda: "\n".join(lines))


def _cmd_char_table(args) -> int:
    spec = group_from_file_obj(read_json(args.group))
    spec._check_work(spec.order)

    def rows():
        # chi_alpha(x) = u^k for k in exponent_row(alpha); one row is held at a time.
        return map(spec.exponent_row, spec.elements())

    if args.pretty:
        cells = [str(v) for v in spec.ctx.circle()]
        # The table's exponents are exactly the multiples of s/e, e = lcm(dims):
        # some alpha has order e, and its row takes every e-th root of unity.
        width_ = max(map(len, cells[:: len(cells) // math.lcm(*spec.dims)]))
        _emit(args, ("  ".join(cells[k].rjust(width_) for k in row) + "\n" for row in rows()))
    else:
        # The bytes of dumps({**group_file_to_obj(spec), "table": ...}), row by row.
        cells = [dumps(element_to_obj(v)) for v in spec.ctx.circle()]
        head = dumps(group_file_to_obj(spec))[:-1] + ',"table":['
        body = (
            ("," if i else "") + "[" + ",".join(cells[k] for k in row) + "]"
            for i, row in enumerate(rows())
        )
        _emit(args, itertools.chain([head], body, ["]}\n"]))
    return 0


def _cmd_table(args) -> int:
    """Apply the library function args.function names to the --in (then --in2) table."""
    # The lazy package imports only the module that defines the function.
    function = getattr(sys.modules[__package__], args.function)
    paths = [args.infile] + ([args.infile2] if "infile2" in args else [])
    tables = [scalar_function_from_obj(read_json(path)) for path in paths]
    return _reply(args, 0, scalar_function_to_obj(function(*tables)))


def _cmd_bent_check(args) -> int:
    from .bent import is_bent_spectral

    report = is_bent_spectral(scalar_function_from_obj(read_json(args.infile)))
    points = ", ".join(str(list(x)) for x in report.failing_points)
    pretty = "bent" if report.is_bent else f"not bent (fails at {points})"
    return _reply(args, 0 if report.is_bent else 1, _bent_report_obj(report), lambda: pretty)


def _cmd_search(args) -> int:
    from .bent import MAX_CANDIDATES, search_bent

    spec = group_from_file_obj(read_json(args.group))
    budget = MAX_CANDIDATES if args.max_candidates is None else args.max_candidates
    result = search_bent(spec, args.d, max_candidates=budget, jobs=args.jobs)
    tables = [list(e) for e in result.tables]
    obj = {
        **group_file_to_obj(spec),
        "d": result.d,
        "candidates": result.candidates,
        "count": result.count,
        "bent": tables,
    }
    head = f"{result.count} bent of {result.candidates} candidates (d={result.d})"
    return _reply(args, 0, obj, lambda: "\n".join([head, *map(str, tables)]))


def _cmd_compare(args) -> int:
    from .bent import MAX_CANDIDATES, _search, is_bent_spectral
    from .characters import ScalarFunction
    from .classical import _classical_verdict, is_classical_bent

    if args.infile:
        ef = exponent_function_from_obj(read_json(args.infile))
        spec, m, checked = ef.spec, ef.m, 1
        classical = [ef.exponents] if is_classical_bent(ef) else []
    elif args.exhaustive and args.group:
        if args.m is None:
            raise MalformedInput("--m is required with --exhaustive")
        spec, m = group_from_file_obj(read_json(args.group)), args.m
        # The search's driver with the classical verdict, which checks m | s first.
        result = _search(spec, m, _classical_verdict(spec, m), MAX_CANDIDATES, jobs=1)
        checked, classical = result.candidates, result.tables
    else:
        raise MalformedInput(
            "compare needs either --in FILE or --group FILE --m M --exhaustive"
        )
    # comparison_check on each classically bent table, in mixed-radix order
    counterexamples = [
        list(e)
        for e in classical
        if not is_bent_spectral(ScalarFunction.from_exponents(spec, m, e)).is_bent
    ]
    obj = {"checked": checked, "classical_bent": len(classical)}
    obj["counterexamples"] = counterexamples
    verdict = "implication holds" if not counterexamples else "COUNTEREXAMPLES FOUND"
    pretty = f"{checked} checked, {len(classical)} classically bent: {verdict}"
    return _reply(args, 1 if counterexamples else 0, obj, lambda: pretty)


def _cmd_vectorial_check(args) -> int:
    from .vectorial import is_md_bent, is_md_bent_derivative

    f = vector_function_from_obj(read_json(args.infile))
    report = is_md_bent(f)
    obj = _bent_report_obj(report)
    obj["derivative_agrees"] = is_md_bent_derivative(f).is_bent == report.is_bent
    pretty = "bent" if report.is_bent else "not bent"
    return _reply(args, 0 if report.is_bent else 1, obj, lambda: pretty)


def _parse_coeffs(text: Optional[str]) -> Optional[list[int]]:
    if text is None:
        return None
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise MalformedInput("--modulus must list integers", witness=_clip(text)) from None


def _clip(text: str, limit: int = 200) -> str:
    """text as a record echoes it: its head and length past limit (argparse's choices fit)."""
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as malformed-input records instead of exiting."""

    def error(self, message: str):
        # Messages that reach here end with the missing flags, the unknown
        # arguments or the bad choice; bad integers are caught by _int.
        head, sep, token = message.rpartition(": ")
        raise MalformedInput(head + sep + _clip(token), witness=_clip(token))


def _int(text: str) -> int:
    """An argparse type that reports a bad token as malformed input."""
    try:
        return int(text)
    except ValueError:
        text = _clip(text)
        raise MalformedInput(f"expected an integer, got {text!r}", witness=text) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gfharmonic",
        description="Finite-field character sums, Fourier transforms, and bent functions.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"gfharmonic {__version__} (schema {SCHEMA_VERSION})",
    )
    pretty = argparse.ArgumentParser(add_help=False)
    pretty.add_argument("--pretty", action="store_true", help="aligned text instead of JSON")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write output to a file instead of stdout")
    # ft, ift, mm, dual and conv print JSON only; the other subcommands add --pretty.
    common, json_only = [pretty, out], [out]
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("field-info", parents=common, help="construct and describe a field")
    sp.add_argument("--p", type=_int, required=True)
    sp.add_argument("--n", type=_int, required=True)
    sp.add_argument("--modulus", help="comma-separated coefficients, low degree first")
    sp.set_defaults(handler=_cmd_field_info)

    sp = sub.add_parser("char-table", parents=common, help="full character table of a group")
    sp.add_argument("--group", required=True, help="group JSON file")
    sp.set_defaults(handler=_cmd_char_table)

    # _cmd_table applies the library function a row names; bent-check has its own handler.
    for name, function, help_ in [
        ("ft", "ft", "Fourier transform of a function table"),
        ("ift", "inverse_ft", "inverse Fourier transform"),
        ("bent-check", None, "test a table for bentness (exit 0/1)"),
        ("mm", "mm_construct", "product-group bent construction from a circle-valued table"),
        ("dual", "dual_bent", "dual of a bent function"),
        ("conv", "convolve", "convolution of two tables"),
    ]:
        sp = sub.add_parser(name, parents=json_only if function else common, help=help_)
        sp.add_argument("--in", dest="infile", required=True, help="function JSON file")
        if name == "conv":
            sp.add_argument("--in2", dest="infile2", required=True)
        sp.set_defaults(handler=_cmd_table if function else _cmd_bent_check, function=function)

    sp = sub.add_parser("search", parents=common, help="exhaustive bent search")
    sp.add_argument("--group", required=True)
    sp.add_argument("--d", type=_int, required=True, help="order of the value subgroup")
    # None means bent.MAX_CANDIDATES, resolved when the search runs so that
    # building the parser loads no library module.
    sp.add_argument("--max-candidates", type=_int, default=None)
    sp.add_argument("--jobs", type=_int, default=1)
    sp.set_defaults(handler=_cmd_search)

    sp = sub.add_parser(
        "compare", parents=common, help="classical-vs-field bentness comparison"
    )
    sp.add_argument("--group", help="group JSON file (for --exhaustive)")
    sp.add_argument("--m", type=_int, help="root-of-unity order")
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--in", dest="infile", help="exponent function JSON file")
    sp.set_defaults(handler=_cmd_compare)

    sp = sub.add_parser(
        "vectorial-check", parents=common, help="multidimensional bent test (exit 0/1)"
    )
    sp.add_argument("--in", dest="infile", required=True, help="vector function JSON file")
    sp.set_defaults(handler=_cmd_vectorial_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (HarmonicError, OSError) as exc:
        harmonic = isinstance(exc, HarmonicError)
        code, witness = (exc.code, exc.witness) if harmonic else ("io-error", None)
        if isinstance(witness, FieldElement):
            witness = element_to_obj(witness)
        record = {"code": code, "message": str(exc), "witness": witness}
        sys.stderr.write(dumps(record) + "\n")
        return 2
