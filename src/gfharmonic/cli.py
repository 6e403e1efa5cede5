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
from typing import Iterable, Optional, Sequence, Union

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
    spec = group_from_file_obj(read_json(args.group))
    spec._check_work(spec.order)

    def rows():
        # chi_alpha(x) = u^k for k in exponent_row(alpha); one row is held at a time.
        return map(spec.exponent_row, spec.elements())

    if args.pretty:
        cells = [str(v) for v in spec.ctx.circle()]
        width_ = max(len(cells[k]) for row in rows() for k in row)
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
    """Apply the library function named by args.function to one table."""
    # The lazy package imports only the module that defines the function.
    function = getattr(sys.modules[__package__], args.function)
    f = scalar_function_from_obj(read_json(args.infile))
    _emit(args, dumps(scalar_function_to_obj(function(f))))
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


def _cmd_search(args) -> int:
    from .bent import MAX_CANDIDATES, search_bent

    spec = group_from_file_obj(read_json(args.group))
    budget = MAX_CANDIDATES if args.max_candidates is None else args.max_candidates
    result = search_bent(
        spec, args.d, max_candidates=budget, jobs=args.jobs
    )
    obj = {
        **group_file_to_obj(spec),
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
    from .bent import MAX_CANDIDATES, _check_tables, is_bent_spectral
    from .characters import ScalarFunction
    from .classical import _check_root_order, _phi_divides

    if args.infile:
        ef = exponent_function_from_obj(read_json(args.infile))
        spec, m, tables = ef.spec, ef.m, [ef.exponents]
        spec._check_work(spec.order)
        # One table: its rows are built lazily, as in is_classical_bent.
        rows = map(spec.translate_row, spec.directions_up_to_sign())
    elif args.exhaustive and args.group:
        if args.m is None:
            raise HarmonicError("--m is required with --exhaustive")
        spec, m = group_from_file_obj(read_json(args.group)), args.m
        _check_root_order(spec, m)
        _check_tables(spec, m, MAX_CANDIDATES)
        tables = itertools.product(range(m), repeat=spec.order)
        # The rows depend only on the group, so every table shares them.
        rows = [spec.translate_row(a) for a in spec.directions_up_to_sign()]
    else:
        raise HarmonicError(
            "compare needs either --in FILE or --group FILE --m M --exhaustive"
        )
    checked = 0
    classical = 0
    counterexamples = []
    for e in tables:
        checked += 1
        # comparison_check, with the classical verdict decided once per table
        if _phi_divides(rows, e, m):
            classical += 1
            if not is_bent_spectral(ScalarFunction.from_exponents(spec, m, e)).is_bent:
                counterexamples.append(list(e))
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
        # arguments or the bad choice; bad integers are caught by _int.
        raise MalformedInput(message, witness=message.rpartition(": ")[2])


def _int(text: str) -> int:
    """An argparse type that reports a bad token as malformed input."""
    try:
        return int(text)
    except ValueError:
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
    ]:
        sp = sub.add_parser(name, parents=json_only if function else common, help=help_)
        sp.add_argument("--in", dest="infile", required=True, help="function JSON file")
        sp.set_defaults(handler=_cmd_table if function else _cmd_bent_check, function=function)

    sp = sub.add_parser("conv", parents=json_only, help="convolution of two tables")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--in2", dest="infile2", required=True)
    sp.set_defaults(handler=_cmd_conv)

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
