"""Command-line surface.

Exit codes partition outcomes: 0 success / certified, 1 definite negative,
2 input error, 3 unknown verdict, 4 internal error (an uncaught exception,
one line on stderr). Structured output is a single JSON tree with a
schema_version field, byte-stable across runs for fixed flags and seed.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import chain
from typing import Iterable

from .certify import certify_report, density_experiment
from .congruence import (
    IN_GAMMA,
    NOT_IN_GAMMA,
    RootSpec,
    UNKNOWN,
    eval_gen_word,
    format_gen_word,
    gamma_index,
    membership,
    parse_gen_word,
    quotient_closure,
    root_matrix,
    synthesize_root,
    verify_identities,
)
from .matrices import IntMatrix, SpMatrix
from .polynomials import DESK_DEGREE_BOUND, charpoly
from .surgery import monodromy_from_plan, plan_as_json_dict, plan_from_T_word
from .words import (
    FamilyRejection,
    TDecomposition,
    eval_word,
    format_word,
    parse_word,
    token_pattern,
    validate_family_T,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3
EXIT_INTERNAL = 4
MAX_GENUS = DESK_DEGREE_BOUND // 2  # every subcommand; certify factors a degree-2g charpoly


def _matrix_rows(m: SpMatrix) -> list[list[int]]:
    return [list(row) for row in m.m.rows]


def _matrix_lines(m: SpMatrix) -> list[str]:
    width = max(len(str(x)) for row in m.m.rows for x in row)
    return [" ".join(str(x).rjust(width) for x in row) for row in m.m.rows]


def _decomposition_dict(dec: TDecomposition) -> dict:
    return {
        "blocks": [
            {"p": list(b.p), "q": list(b.q), "r": list(b.r)} for b in dec.blocks
        ]
    }


class CliInputError(ValueError):
    pass


Outcome = tuple[int, dict, list[str]]  # exit code, JSON payload, human lines


def _input(fn, *args):
    """Run one step that reads user input; its ValueError or OSError (an
    unusable path) is an input error, exit 2. Computations are not wrapped,
    so their exceptions stay internal errors."""
    try:
        return fn(*args)
    except (ValueError, OSError) as exc:
        raise CliInputError(str(exc)) from exc


_MATRIX_LINE = re.compile(r"\s*(?:-?[0-9]+(?:\s+-?[0-9]+)*\s*)?")


def _read_matrix_file(path: str, genus: int) -> SpMatrix:
    """The non-blank lines of the file as rows of integers, each entry
    -?[0-9]+, forming a 2g x 2g matrix. Reading stops at a line longer than
    a legal row (2g signed entries of at most the digits int() converts, each
    with a separator; when that limit is off, the interpreter's default of
    4300 digits still bounds the line) and at a non-blank row past the 2g-th,
    so no file is read further than a 2g x 2g matrix needs."""
    n = 2 * genus
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    max_line = n * (digits + 2) + 1
    rows: list[tuple[int, ...]] = []
    try:
        with open(path) as fh:
            lines = iter(lambda: fh.readline(max_line + 1), "")
            for number, line in enumerate(lines, start=1):
                if len(line) > max_line:
                    raise ValueError(f"line {number} is longer than {max_line} characters")
                if not _MATRIX_LINE.fullmatch(line):
                    raise ValueError(f"line {number}: an entry is not -?[0-9]+")
                if line.strip():
                    if len(rows) == n:
                        raise ValueError(f"line {number} is a row past the {n}th")
                    entries = line.split()
                    try:  # int() refuses more digits than sys.get_int_max_str_digits()
                        rows.append(tuple(map(int, entries)))
                    except ValueError:
                        raise ValueError(f"line {number}: integer too long in a "
                                         f"{max(map(len, entries))}-character entry") from None
        matrix = IntMatrix(tuple(rows))
        if matrix.dim != n:
            raise ValueError(f"dimension {matrix.dim} does not match genus {genus}")
        return SpMatrix(matrix)
    except (OSError, ValueError) as exc:
        raise CliInputError(f"cannot read matrix from {path}: {exc}")


def _check_printable(*groups: Iterable[int]) -> None:
    """Refuse an output integer with more digits than str() converts
    (sys.get_int_max_str_digits()), before any of them becomes text. An
    integer of at most 3L bits has fewer than L digits (2^3L < 10^L), so
    only a longer one is compared with 10^L."""
    limit = sys.get_int_max_str_digits()
    if (limit and max(map(int.bit_length, chain.from_iterable(groups))) > 3 * limit
            and max(map(abs, chain.from_iterable(groups))) >= 10 ** limit):
        raise CliInputError(f"an output integer has more than {limit} digits, "
                            f"the integer string conversion limit")


def _exponents(dec: TDecomposition) -> list[int]:
    return [x for b in dec.blocks for x in b.p + b.q]


def cmd_eval(args: argparse.Namespace) -> Outcome:
    word = _input(parse_word, args.word, args.genus)
    matrix = eval_word(word)
    chi = charpoly(matrix)
    _check_printable(*matrix.m.rows, chi.coeffs)
    payload = {
        "word": format_word(word),
        "matrix": _matrix_rows(matrix),
        "charpoly": list(chi.coeffs),
    }
    lines = [
        f"word: {format_word(word) or '(empty)'}",
        "matrix:",
        *_matrix_lines(matrix),
        f"charpoly: {chi}",
    ]
    return EXIT_OK, payload, lines


def cmd_certify(args: argparse.Namespace) -> Outcome:
    word = _input(parse_word, args.word, args.genus)
    report = certify_report(word, strict_power_mode=args.strict)
    _check_printable(*report.matrix.m.rows, report.charpoly.coeffs,
                     _exponents(report.anosov) if report.anosov_certified else ())
    anosov_ok = report.anosov_certified
    payload = {
        "word": format_word(word),
        "matrix": _matrix_rows(report.matrix),
        "charpoly": list(report.charpoly.coeffs),
        "anosov": anosov_ok,
        "pa_status": report.pa.status,
        "pa_reasons": report.pa.sorted_reasons(),
        "hyperbolic": report.hyperbolic,
    }
    lines = [
        f"word: {format_word(word) or '(empty)'}",
        f"charpoly: {report.charpoly}",
        f"anosov flow certified: {'yes' if anosov_ok else 'no'}",
    ]
    if anosov_ok:
        payload["decomposition"] = _decomposition_dict(report.anosov)
        lines.append(f"family blocks: {len(report.anosov.blocks)}")
    else:
        payload["rejection"] = {
            "position": report.anosov.position,
            "reason": report.anosov.reason,
        }
        lines.append(f"not a family product: {report.anosov}")
    lines.append(f"pseudo-Anosov: {report.pa.status}"
                 + (f" ({', '.join(report.pa.sorted_reasons())})"
                    if report.pa.reasons else ""))
    lines.append(f"hyperbolic mapping torus: {report.hyperbolic}")
    return (EXIT_OK if anosov_ok else EXIT_NEGATIVE), payload, lines


def cmd_plan(args: argparse.Namespace) -> Outcome:
    word = _input(parse_word, args.word, args.genus)
    dec = validate_family_T(word)
    if isinstance(dec, FamilyRejection):
        return (EXIT_NEGATIVE,
                {"word": format_word(word), "accepted": False,
                 "rejection": {"position": dec.position, "reason": dec.reason}},
                [f"not a family product: {dec}"])
    _check_printable(_exponents(dec))
    plan = plan_from_T_word(dec)
    reassembled = monodromy_from_plan(plan)
    round_trip = eval_word(reassembled) == eval_word(word) and \
        validate_family_T(reassembled) == dec
    payload = {
        "word": format_word(word),
        "accepted": True,
        "plan": plan_as_json_dict(plan),
        "monodromy": format_word(reassembled),
        "round_trip_ok": round_trip,
    }
    lines = [f"blocks: {plan.block_count}", f"surgeries: {plan.op_count()}"]
    for s, group in enumerate(plan.ops, start=1):
        for op in group:
            lines.append(
                f"  block {s}: orbit {op.orbit.curve} phase {op.orbit.phase} "
                f"twist {op.orbit.twist} index k={op.index_k} order l={op.order_l}")
    lines.append(f"monodromy after surgeries: {format_word(reassembled) or '(empty)'}")
    lines.append(f"round trip: {'ok' if round_trip else 'FAILED'}")
    return EXIT_OK, payload, lines


def cmd_verify_claims(args: argparse.Namespace) -> Outcome:
    report = verify_identities(args.genus)
    payload = {
        "all_passed": report.all_passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }
    lines = []
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        lines.append(f"{status}  {c.name}" + (f"  [{c.detail}]" if c.detail else ""))
    lines.append(f"{'all identities pass' if report.all_passed else 'FAILURES present'} "
                 f"({len(report.checks)} checks)")
    return (EXIT_OK if report.all_passed else EXIT_NEGATIVE), payload, lines


_V_SPEC_RE, _X_SPEC_RE = token_pattern("VW"), token_pattern("XYZ", 2)


def _parse_root_spec(text: str, genus: int) -> RootSpec:
    m = _V_SPEC_RE.fullmatch(text) or _X_SPEC_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"malformed root spec {text!r}")
    kind, *indices, exp_text = m.groups()
    try:  # int() refuses more digits than sys.get_int_max_str_digits()
        t = int(exp_text) if exp_text else 2 ** (genus - 1)
        indices = list(map(int, indices))
    except ValueError:
        raise ValueError(f"integer too long in a {len(text)}-character root spec") from None
    spec = RootSpec(kind, *indices, t=t)
    spec.validate(genus)
    return spec


def cmd_synthesize(args: argparse.Namespace) -> Outcome:
    spec = _input(_parse_root_spec, args.spec, args.genus)
    word = _input(synthesize_root, spec, args.genus)
    verified = eval_gen_word(word) == root_matrix(spec, args.genus)
    payload = {
        "spec": str(spec),
        "word": format_gen_word(word),
        "length": len(word),
        "verified": verified,
    }
    lines = [
        f"spec: {spec}",
        f"word ({len(word)} letters): {format_gen_word(word)}",
        f"verified by evaluation: {'yes' if verified else 'NO'}",
    ]
    return (EXIT_OK if verified else EXIT_NEGATIVE), payload, lines


VERDICT_EXIT = {IN_GAMMA: EXIT_OK, NOT_IN_GAMMA: EXIT_NEGATIVE, UNKNOWN: EXIT_UNKNOWN}


def cmd_membership(args: argparse.Namespace) -> Outcome:
    matrix = _read_matrix_file(args.matrix_file, args.genus)
    witness = None if args.witness is None else _input(parse_gen_word, args.witness, args.genus)
    if args.cache:  # a cache error exits 2 before any verdict
        _input(quotient_closure, args.cache, args.genus)
    result = _input(membership, matrix, witness)
    payload = {"verdict": result.verdict, "detail": result.detail}
    lines = [f"verdict: {result.verdict} ({result.detail})"]
    if result.witness is not None:
        payload["witness"] = format_gen_word(result.witness)
        lines.append(f"witness: {format_gen_word(result.witness) or '(empty word)'}")
    return VERDICT_EXIT[result.verdict], payload, lines


def cmd_index(args: argparse.Namespace) -> Outcome:
    if args.genus != 2:
        raise CliInputError("the exact index computation runs at genus 2")
    table = _input(quotient_closure, args.cache)
    index = gamma_index()
    payload = {"modulus": table.modulus, "image_size": table.size, "index": index}
    lines = [
        f"quotient image size mod {table.modulus}: {table.size}",
        f"[Sp(4,Z) : Gamma] = {index}",
    ]
    return EXIT_OK, payload, lines


def cmd_density(args: argparse.Namespace) -> Outcome:
    if args.samples < 1 or args.blocks < 1 or args.bound < 0:
        raise CliInputError("need samples >= 1, blocks >= 1, bound >= 0")
    result = density_experiment(args.genus, args.blocks, args.samples,
                                args.bound, args.seed)
    payload = {
        "blocks": result.block_count,
        "samples": result.samples,
        "bound": result.exponent_bound,
        "seed": result.seed,
        "certified": result.certified,
        "fraction": result.fraction,
        "reason_counts": result.reason_counts,
    }
    lines = [
        f"certified {result.certified}/{result.samples} "
        f"(fraction {result.fraction:.4f})",
        "failure reasons: " + (", ".join(
            f"{k}={v}" for k, v in result.reason_counts.items()) or "none"),
    ]
    return EXIT_OK, payload, lines


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """A fresh parser on every call. Given a subcommand name, only that
    subcommand's parser is built; given None or any other string, all of
    them are. Help and error text are the same either way."""
    parser = argparse.ArgumentParser(
        prog="twistcert",
        description="Exact certification of Dehn-twist words: Anosov-flow "
                    "family membership, pseudo-Anosov homological criterion, "
                    "surgery plans, and symplectic subgroup membership.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    names = []

    def add(name, func, help, positional=None, positional_help=None, genus=None,
            **options):
        """Each option is --NAME with add_argument keywords; --genus is
        required unless a default is given."""
        names.append(name)
        if command not in (None, name):
            return
        p = sub.add_parser(name, help=help)
        if positional:
            p.add_argument(positional, help=positional_help)
        for flag, kwargs in options.items():
            p.add_argument(f"--{flag}", **kwargs)
        p.add_argument("--genus", type=int, required=genus is None, default=genus)
        p.add_argument("--format", choices=("human", "json"), default="human")
        p.set_defaults(func=func)

    cache = {"help": "closure cache file"}
    add("eval", cmd_eval, "evaluate a twist word on homology", "word")
    add("certify", cmd_certify, "full certification report for a word", "word",
        strict={"action": "store_true",
                "help": "also reject characteristic polynomials in x^k, k >= 3"})
    add("plan", cmd_plan, "surgery plan and monodromy round trip", "word")
    add("verify-claims", cmd_verify_claims, "machine-check the generation identities")
    add("synthesize", cmd_synthesize, "generator word for a root element", "spec",
        "e.g. V1, W2, X1,3, Z1,2^4 (default exponent 2^(g-1))")
    add("membership", cmd_membership, "membership verdict for a matrix file",
        "matrix_file", "one row per line, whitespace-separated integers",
        witness={"help": "generator word certifying membership"}, cache=cache)
    add("index", cmd_index, "index of the subgroup in Sp(4,Z)", genus=2, cache=cache)
    add("density", cmd_density, "certified fraction over random family words",
        seed={"type": int, "required": True}, samples={"type": int, "required": True},
        blocks={"type": int, "default": 2}, bound={"type": int, "default": 2})
    if command is not None:
        if command not in names:
            return build_parser()
        # the usage line in errors lists every subcommand, as the full parser's
        # does; a metavar would also rename "argument subcommand" in the
        # missing- and unknown-subcommand errors, which only the full parser gives
        sub.metavar = "{" + ",".join(names) + "}"
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: the one place that adds command and genus to the
    payload, emits it, and maps exceptions to exit 2 (input) or 4 (internal)."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if args.genus < 2:
            raise CliInputError("genus must be >= 2")
        if args.genus > MAX_GENUS:
            raise CliInputError(f"genus {args.genus} exceeds the factoring bound {MAX_GENUS}")
        code, payload, lines = args.func(args)
        if args.format == "json":
            payload = {"schema_version": SCHEMA_VERSION, "command": args.subcommand,
                       "genus": args.genus, **payload}
            sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        else:
            sys.stdout.write("\n".join(lines) + "\n")
        return code
    except CliInputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
