"""Command-line frontend: JSON in, JSON out, exit codes you can branch on.

Exit status is 0 for success or a true verdict, 1 for a checked-and-false
verdict (e.g. not bent), and 2 for any error, in which case a structured
record {"code", "message", "witness"} is written to stderr.

Each handler imports the library modules it runs, so a process loads only
what its subcommand needs.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import Optional, Sequence

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
    group_element_to_obj,
    group_from_file_obj,
    group_to_obj,
    read_json,
    scalar_function_from_obj,
    scalar_function_to_obj,
    vector_function_from_obj,
)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _bent_report_obj(report) -> dict:
    return {
        "is_bent": report.is_bent,
        "spectrum_norms": [element_to_obj(v) for v in report.spectrum_norms],
        "failing_points": [group_element_to_obj(x) for x in report.failing_points],
    }


def _cmd_field_info(args) -> int:
    ctx = _checked_context(args.p, args.n, _parse_coeffs(args.modulus), "--modulus")
    if args.pretty:
        lines = [
            f"p = {ctx.p}, n = {ctx.n}, q = {ctx.q}",
            f"sqrt(q) = {ctx.sqrt_q}, circle order = {ctx.circle_order}",
            f"modulus = {list(ctx.modulus)}",
            f"g = {ctx.g} (coeffs {list(ctx.g.coeffs)})",
            f"u = {ctx.u} (coeffs {list(ctx.u.coeffs)})",
        ]
        _emit(args, "\n".join(lines))
    else:
        obj = context_to_obj(ctx)
        obj.update(
            {
                "q": ctx.q,
                "sqrt_q": ctx.sqrt_q,
                "circle_order": ctx.circle_order,
                "g": element_to_obj(ctx.g),
                "u": element_to_obj(ctx.u),
            }
        )
        _emit(args, dumps(obj))
    return 0


def _cmd_char_table(args) -> int:
    from .characters import character_row

    spec = group_from_file_obj(read_json(args.group))
    rows = [character_row(spec, alpha) for alpha in spec.elements()]
    if args.pretty:
        cells = [[str(v) for v in row.values] for row in rows]
        width_ = max(len(c) for row in cells for c in row)
        text = "\n".join("  ".join(c.rjust(width_) for c in row) for row in cells)
        _emit(args, text)
    else:
        obj = {
            "context": context_to_obj(spec.ctx),
            "group": group_to_obj(spec),
            "table": [[element_to_obj(v) for v in row.values] for row in rows],
        }
        _emit(args, dumps(obj))
    return 0


def _cmd_ft(args) -> int:
    from .fourier import ft

    f = scalar_function_from_obj(read_json(args.infile))
    _emit(args, dumps(scalar_function_to_obj(ft(f))))
    return 0


def _cmd_ift(args) -> int:
    from .fourier import inverse_ft

    f = scalar_function_from_obj(read_json(args.infile))
    _emit(args, dumps(scalar_function_to_obj(inverse_ft(f))))
    return 0


def _cmd_conv(args) -> int:
    from .fourier import convolve

    f = scalar_function_from_obj(read_json(args.infile))
    g = scalar_function_from_obj(read_json(args.infile2))
    _emit(args, dumps(scalar_function_to_obj(convolve(f, g))))
    return 0


def _cmd_bent_check(args) -> int:
    from .bent import is_bent_spectral

    f = scalar_function_from_obj(read_json(args.infile))
    report = is_bent_spectral(f)
    if args.pretty:
        if report.is_bent:
            _emit(args, "bent")
        else:
            pts = ", ".join(str(list(x)) for x in report.failing_points)
            _emit(args, f"not bent (fails at {pts})")
    else:
        _emit(args, dumps(_bent_report_obj(report)))
    return 0 if report.is_bent else 1


def _cmd_mm(args) -> int:
    from .bent import mm_construct

    g = scalar_function_from_obj(read_json(args.infile))
    _emit(args, dumps(scalar_function_to_obj(mm_construct(g))))
    return 0


def _cmd_dual(args) -> int:
    from .bent import dual_bent

    f = scalar_function_from_obj(read_json(args.infile))
    _emit(args, dumps(scalar_function_to_obj(dual_bent(f))))
    return 0


def _cmd_search(args) -> int:
    from .bent import search_bent

    spec = group_from_file_obj(read_json(args.group))
    result = search_bent(
        spec, args.d, max_candidates=args.max_candidates, jobs=args.jobs
    )
    obj = {
        "context": context_to_obj(spec.ctx),
        "group": group_to_obj(spec),
        "d": result.d,
        "candidates": result.candidates,
        "count": result.count,
        "bent": [list(e) for e in result.tables],
    }
    if args.pretty:
        lines = [f"{result.count} bent of {result.candidates} candidates (d={result.d})"]
        lines.extend(str(list(e)) for e in result.tables)
        _emit(args, "\n".join(lines))
    else:
        _emit(args, dumps(obj))
    return 0


def _cmd_compare(args) -> int:
    from .classical import ExponentFunction, comparison_check, is_classical_bent

    if args.infile:
        efs = [exponent_function_from_obj(read_json(args.infile))]
    elif args.exhaustive and args.group:
        if args.m is None:
            raise HarmonicError("--m is required with --exhaustive")
        spec = group_from_file_obj(read_json(args.group))
        efs = [
            ExponentFunction(spec, args.m, e)
            for e in itertools.product(range(args.m), repeat=spec.order)
        ]
    else:
        raise HarmonicError(
            "compare needs either --in FILE or --group FILE --m M --exhaustive"
        )
    checked = 0
    classical = 0
    counterexamples = []
    for ef in efs:
        checked += 1
        cb = is_classical_bent(ef, args.tol)
        classical += cb
        if not comparison_check(ef, args.tol):
            counterexamples.append(list(ef.exponents))
    obj = {
        "checked": checked,
        "classical_bent": classical,
        "counterexamples": counterexamples,
    }
    if args.pretty:
        verdict = "implication holds" if not counterexamples else "COUNTEREXAMPLES FOUND"
        _emit(args, f"{checked} checked, {classical} classically bent: {verdict}")
    else:
        _emit(args, dumps(obj))
    return 0 if not counterexamples else 1


def _cmd_vectorial_check(args) -> int:
    from .vectorial import is_md_bent, is_md_bent_derivative

    f = vector_function_from_obj(read_json(args.infile))
    report = is_md_bent(f)
    cross = is_md_bent_derivative(f)
    obj = _bent_report_obj(report)
    obj["derivative_agrees"] = cross.is_bent == report.is_bent
    if args.pretty:
        _emit(args, "bent" if report.is_bent else "not bent")
    else:
        _emit(args, dumps(obj))
    return 0 if report.is_bent else 1


def _parse_coeffs(text: Optional[str]) -> Optional[list[int]]:
    if text is None:
        return None
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise MalformedInput("--modulus must list integers", witness=text) from None


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as malformed-input records instead of exiting."""

    def error(self, message: str):
        # Messages that reach here end with the missing flags, the unknown
        # arguments or the bad choice; bad numbers are caught by _number.
        raise MalformedInput(message, witness=message.rpartition(": ")[2])


def _number(kind, what: str):
    """An argparse type that reports a bad token as malformed input."""

    def parse(text: str):
        try:
            return kind(text)
        except ValueError:
            raise MalformedInput(f"expected {what}, got {text!r}", witness=text) from None

    return parse


_int, _float = _number(int, "an integer"), _number(float, "a number")


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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="aligned text instead of JSON")
    common.add_argument("--out", help="write output to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("field-info", parents=[common], help="construct and describe a field")
    sp.add_argument("--p", type=_int, required=True)
    sp.add_argument("--n", type=_int, required=True)
    sp.add_argument("--modulus", help="comma-separated coefficients, low degree first")
    sp.set_defaults(handler=_cmd_field_info)

    sp = sub.add_parser("char-table", parents=[common], help="full character table of a group")
    sp.add_argument("--group", required=True, help="group JSON file")
    sp.set_defaults(handler=_cmd_char_table)

    for name, handler, help_ in [
        ("ft", _cmd_ft, "Fourier transform of a function table"),
        ("ift", _cmd_ift, "inverse Fourier transform"),
        ("bent-check", _cmd_bent_check, "test a table for bentness (exit 0/1)"),
        ("mm", _cmd_mm, "product-group bent construction from a circle-valued table"),
        ("dual", _cmd_dual, "dual of a bent function"),
    ]:
        sp = sub.add_parser(name, parents=[common], help=help_)
        sp.add_argument("--in", dest="infile", required=True, help="function JSON file")
        sp.set_defaults(handler=handler)

    sp = sub.add_parser("conv", parents=[common], help="convolution of two tables")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--in2", dest="infile2", required=True)
    sp.set_defaults(handler=_cmd_conv)

    sp = sub.add_parser("search", parents=[common], help="exhaustive bent search")
    sp.add_argument("--group", required=True)
    sp.add_argument("--d", type=_int, required=True, help="order of the value subgroup")
    sp.add_argument("--max-candidates", type=_int, default=1_000_000)
    sp.add_argument("--jobs", type=_int, default=1)
    sp.set_defaults(handler=_cmd_search)

    sp = sub.add_parser(
        "compare", parents=[common], help="classical-vs-field bentness comparison"
    )
    sp.add_argument("--group", help="group JSON file (for --exhaustive)")
    sp.add_argument("--m", type=_int, help="root-of-unity order")
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--in", dest="infile", help="exponent function JSON file")
    sp.add_argument("--tol", type=_float, default=None)
    sp.set_defaults(handler=_cmd_compare)

    sp = sub.add_parser(
        "vectorial-check", parents=[common], help="multidimensional bent test (exit 0/1)"
    )
    sp.add_argument("--in", dest="infile", required=True, help="vector function JSON file")
    sp.set_defaults(handler=_cmd_vectorial_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except HarmonicError as exc:
        witness = exc.witness
        if isinstance(witness, FieldElement):
            witness = element_to_obj(witness)
        elif isinstance(witness, tuple):
            witness = list(witness)
        record = {"code": exc.code, "message": str(exc), "witness": witness}
        sys.stderr.write(dumps(record) + "\n")
        return 2
    except OSError as exc:
        record = {"code": "io-error", "message": str(exc), "witness": None}
        sys.stderr.write(dumps(record) + "\n")
        return 2
