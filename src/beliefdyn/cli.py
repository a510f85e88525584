"""Command-line interface: evidence files in, evidence files out.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 precondition error (singularity, total conflict, non-contained evidence).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable
from pathlib import Path

from . import documents
from .belief import (
    Kind,
    MassFunction,
    b_from_mass,
    bel_from_mass,
    mass_from,
    pl_from_mass,
    q_from_mass,
)
from .dynamics import (
    combine_conjunctive,
    combine_disjunctive,
    combine_normalized,
    condition,
    enlarge,
    retract,
)
from .errors import InputError, PreconditionError
from .lattice import Frame

_CONVERTERS = {
    "bel": bel_from_mass,
    "pl": pl_from_mass,
    "q": q_from_mass,
    "b": b_from_mass,
}


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_mass(path: str):
    return documents.parse_mass_document(_read(path))


def _emit(pieces: Iterable[str], output: str | None) -> None:
    """Write ``pieces`` to ``output``, or to stdout when it is None.

    The output is opened only now, so a document whose checks failed
    leaves an existing file as it was.
    """
    if output is None:
        sys.stdout.writelines(pieces)
    else:
        with Path(output).open("w", encoding="utf-8") as file:
            file.writelines(pieces)


def _cmd_convert(args) -> int:
    parsed = documents.parse_document(_read(args.input))
    m = parsed if isinstance(parsed, MassFunction) else mass_from(parsed)
    if args.to == "mass":
        _emit(documents.mass_document_chunks(m), args.output)
    else:
        _emit(documents.value_document_chunks(_CONVERTERS[args.to](m)), args.output)
    return 0


def _cmd_combine(args) -> int:
    rules = {
        "conjunctive": combine_conjunctive,
        "normalized": combine_normalized,
        "disjunctive": combine_disjunctive,
    }
    rule = rules[args.rule]
    masses = [_read_mass(path) for path in args.inputs]
    combined = masses[0]
    for m in masses[1:]:
        combined = rule(combined, m)
    _emit(documents.mass_document_chunks(combined), args.output)
    return 0


def _cmd_on_subset(args) -> int:
    m = _read_mass(args.input)
    subset = documents.parse_subset_key(m.frame, args.on)
    _emit(documents.mass_document_chunks(args.rule(m, subset)), args.output)
    return 0


def _cmd_retract(args) -> int:
    m = _read_mass(args.input)
    evidence = _read_mass(args.evidence)
    _emit(documents.mass_document_chunks(retract(m, evidence)), args.output)
    return 0


def _matrix_frame(args) -> Frame:
    if args.input is not None:
        return _read_mass(args.input).frame
    if args.frame is not None:
        return documents._parse_frame(args.frame.split(","))
    if args.conditioning:
        return documents._parse_frame(args.conditioning.split("|"))
    raise InputError("no frame: give an input file, --frame, or a non-empty --conditioning key")


def _cmd_matrix(args) -> int:
    # imported here, not at the top: no other command needs the matrices
    from .specialization import (
        conditioning_matrix,
        dempsterian_matrix,
        despecialize_matrix,
        disjunctive_matrix,
    )

    if args.kind == "specialization":
        if args.conditioning is None:
            raise InputError("--kind specialization needs --conditioning SUBSET-KEY")
        frame = _matrix_frame(args)
        subset = documents.parse_subset_key(frame, args.conditioning)
        matrix = conditioning_matrix(frame, subset)
        label = f"conditioning-on-{args.conditioning or 'empty-set'} specialization"
    else:
        if args.input is None:
            raise InputError(f"--kind {args.kind} needs an input mass file")
        m = _read_mass(args.input)
        frame = m.frame
        if args.kind == "dempsterian":
            matrix = dempsterian_matrix(m)
        elif args.kind == "despecialization":
            matrix = despecialize_matrix(dempsterian_matrix(m))
        else:
            matrix = disjunctive_matrix(m)
        label = args.kind
    _emit([documents.format_matrix(frame, matrix.values, label)], args.output)
    return 0


def _cmd_check(args) -> int:
    # imported here, not at the top: no other command needs the checks
    from .verify import EXHAUSTIVE_CHECKS, all_passed, format_reports, run_all

    sizes = _parse_int_list(args.n, "--n")
    checks = None if args.theorems is None else args.theorems.split(",")
    reports = run_all(
        sizes=sizes,
        samples=args.samples,
        seed=args.seed,
        checks=checks,
        inject_fault=args.inject_fault,
    )
    header = f"belief-dynamics checks: sizes={sizes} seed={args.seed} samples={args.samples or 'default'}"
    exhaustive = [name for name in EXHAUSTIVE_CHECKS if any(r.check == name for r in reports)]
    if args.samples is not None and exhaustive:
        header += f" (ignored by exhaustive {', '.join(exhaustive)})"
    _emit([header, "\n", format_reports(reports), "\n"], args.output)
    return 0 if all_passed(reports) else 1


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise InputError(f"{flag} wants a comma-separated list of integers, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefdyn",
        description="Belief-function calculus on evidence files: convert representations, "
        "combine and condition evidence, export lattice matrices, run verification checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between mass/bel/pl/q/b representations")
    p.add_argument("input")
    p.add_argument("--to", required=True, choices=["mass"] + [k.value for k in Kind])
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_convert)

    p = sub.add_parser("combine", help="combine two or more evidence files")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--rule", default="conjunctive",
                   choices=["conjunctive", "normalized", "disjunctive"])
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_combine)

    p = sub.add_parser("condition", help="condition evidence on a subset")
    p.add_argument("input")
    p.add_argument("--on", required=True, metavar="SUBSET-KEY")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_on_subset, rule=condition)

    p = sub.add_parser("retract", help="remove previously combined evidence")
    p.add_argument("input")
    p.add_argument("--evidence", required=True, metavar="FILE")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_retract)

    p = sub.add_parser("enlarge", help="make the elements of a subset indiscernible")
    p.add_argument("input")
    p.add_argument("--on", required=True, metavar="SUBSET-KEY")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_on_subset, rule=enlarge)

    p = sub.add_parser("matrix", help="export a lattice operator as dense text")
    p.add_argument("input", nargs="?")
    p.add_argument("--kind", required=True,
                   choices=["specialization", "dempsterian", "despecialization", "disjunctive"])
    p.add_argument("--conditioning", metavar="SUBSET-KEY")
    p.add_argument("--frame", metavar="LABELS", help="comma-separated labels when no input file")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_matrix)

    p = sub.add_parser("check", help="run the verification suite")
    p.add_argument("--theorems", metavar="LIST", help="comma-separated check names (default all)")
    p.add_argument("--n", default="1,2,3,4", metavar="SIZES")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
