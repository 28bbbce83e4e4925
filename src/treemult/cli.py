"""Command-line front end.

Subcommands: mult, charpoly, classify, generate, enumerate, verify, report.
Trees are given as graph6 text, an inline "u-v,u-v" edge list, a JSON
edge-list file, or graph6 lines on stdin (mult/classify/charpoly).
Eigenvalues use the exact "i/M" syntax for 2*cos(i*pi/M); decimals are
deliberately not accepted.

Exit status: 0 on success with zero violations, 1 when a verification run
found violations (with --m-max >= n-max + 1, `verify` also checks every
eigenvalue outside the swept 2*cos(i*pi/M) and counts its violations), 2 on
usage, input or I/O errors (an OSError prints as Python gives it; a sweep
worker that dies raises one, ChildProcessError), 3 when
`verify` aborts because its two multiplicity engines disagree (an
implementation bug; the sweep writes no record file).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from treemult.families import BROAD, FamilyKind, Gamma2Mode, classify, generate
from treemult.poly import InvalidSpecError, LambdaSpec
from treemult.spectrum import char_poly, multiplicity
from treemult.tree import (
    GRAPH6_N_MAX,
    Tree,
    TreeError,
    emit_graph6,
    enumerate_trees,
    load_edge_json,
    major_count,
    pack_graph6,
    parse_edge_text,
    parse_graph6,
    pendant_count,
)
from treemult.verify import (
    EngineMismatchError,
    SweepConfig,
    Tally,
    sweep,
)

OUT_DIR_ENV = "TREEMULT_OUT_DIR"


def _add_tree_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--graph6", help="tree as graph6 text")
    group.add_argument("--edges", help='tree as inline edge list "u-v,u-v,..."')
    group.add_argument("--json", dest="json_file", help="tree as JSON edge-list file")


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default human)",
    )


def _parse_lambda(text: str) -> LambdaSpec:
    try:
        return LambdaSpec.from_string(text)
    except InvalidSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_mode(text: str) -> Gamma2Mode:
    try:
        return Gamma2Mode(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"mode must be strict or broad, got {text!r}")


def _parse_modes(text: str) -> tuple[Gamma2Mode, ...]:
    """Comma list of modes, e.g. "broad,strict"; empty items are skipped."""
    return tuple(_parse_mode(chunk.strip()) for chunk in text.split(",") if chunk.strip())


def _input_trees(args) -> list[Tree]:
    """Resolve the tree input source; stdin supplies one graph6 per line.
    JSON output names each tree in graph6, so a tree above its short form
    is refused here, before anything is computed."""
    if args.graph6 is not None:
        trees = [parse_graph6(args.graph6)]
    elif args.edges is not None:
        trees = [parse_edge_text(args.edges)]
    elif args.json_file is not None:
        with open(args.json_file, "r", encoding="utf-8") as f:
            trees = [load_edge_json(f.read())]
    else:
        trees = [parse_graph6(line) for line in sys.stdin if line.strip()]
    if not trees:
        raise TreeError("no tree input: pass --graph6/--edges/--json or pipe graph6 lines")
    if args.format == "json":
        for t in trees:
            if t.n > GRAPH6_N_MAX:
                raise ValueError(
                    f"--format json prints trees as graph6, which covers n <= {GRAPH6_N_MAX}; "
                    f"got n = {t.n}"
                )
    return trees


def _emit(fmt: str, human: str, record) -> None:
    """Print the human line(s), or for JSON output the record that the
    zero-argument callable builds (only then is graph6 text computed)."""
    print(json.dumps(record()) if fmt == "json" else human)


def _cmd_mult(args) -> int:
    lam = args.lam
    for t in _input_trees(args):
        m = multiplicity(t, lam)
        p = pendant_count(t)
        gamma = major_count(t)
        _emit(
            args.format,
            f"m={m} p={p} gamma={gamma}",
            lambda: {"tree": emit_graph6(t), "lambda": str(lam), "m": m, "p": p, "gamma": gamma},
        )
    return 0


def _cmd_charpoly(args) -> int:
    for t in _input_trees(args):
        coeffs = list(char_poly(t).coeffs)
        _emit(
            args.format,
            " ".join(str(c) for c in coeffs),
            lambda: {"tree": emit_graph6(t), "coeffs": coeffs},
        )
    return 0


def _cmd_classify(args) -> int:
    lam = args.lam
    for t in _input_trees(args):
        try:
            result = classify(t, lam, args.mode)
            steps = result.witness
        except RecursionError:
            raise ValueError(
                f"classify recurses once per major vertex, and {major_count(t)} majors "
                "exceed Python's recursion limit"
            ) from None
        witness = [
            {
                "vertex": step.vertex,
                "clause": step.clause,
                "components": [
                    {"vertices": list(vs), "disposition": label}
                    for vs, label in step.components
                ],
            }
            for step in steps
        ]
        human_lines = [result.tag]
        for step in steps:
            comps = ", ".join(
                f"{label}{list(vs)}" for vs, label in step.components
            )
            human_lines.append(f"  remove {step.vertex}: {comps}")
        _emit(
            args.format,
            "\n".join(human_lines),
            lambda: {
                "tree": emit_graph6(t),
                "lambda": str(lam),
                "mode": args.mode.value,
                "result": result.tag,
                "witness": witness,
            },
        )
    return 0


def _cmd_generate(args) -> int:
    family = FamilyKind.GAMMA if args.family == "gamma" else FamilyKind.GAMMA2
    if args.n_max > GRAPH6_N_MAX:
        # refuse before any output: every member is printed as graph6
        raise ValueError(f"--n-max {args.n_max} above {GRAPH6_N_MAX}, the graph6 short form")
    for t in generate(family, args.k, args.lam, args.n_max, args.mode):
        g6 = emit_graph6(t)
        _emit(args.format, g6, lambda: {"graph6": g6, "n": t.n})
    return 0


def _cmd_enumerate(args) -> int:
    for t in enumerate_trees(args.n):
        g6 = pack_graph6(t)  # enumerated trees are canonically labeled
        _emit(args.format, g6, lambda: {"graph6": g6, "n": t.n})
    return 0


def _default_out_path(name: str) -> str:
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), name)


def _print_counts(tally: Tally, fmt: str, summary: dict | None = None) -> int:
    """Print a tally's counts (in JSON, the whole summary when one is given)
    and return the exit status: 1 when any broad-mode violation was seen,
    other-eigenvalue violations included."""
    counts = tally.counts()
    if fmt == "json":
        print(json.dumps(summary or counts, indent=2))
    else:
        print(f"trees={counts['trees']} specs={counts['specs']} records={counts['records']}")
        print(f"bound violations: {counts['bound']['violations']}")
        print(f"m = p-1 equivalence violations: {counts['pendant_minus_one']['violations']}")
        for mode_value, entry in counts["pendant_minus_two"].items():
            for label, count in entry.items():
                print(f"m = p-2 equivalence ({mode_value}): {count} {label}")
    return 1 if tally.broad_violations else 0


def _cmd_verify(args) -> int:
    out = args.out or _default_out_path("verify_records.jsonl")
    config = SweepConfig(
        n_min=args.n_min,
        n_max=args.n_max,
        M_max=args.m_max,
        modes=args.modes,
        worker_count=args.workers,
        output_path=out,
    )
    report = sweep(config)
    status = _print_counts(report, args.format, report.summary_dict())
    other = report.other_eigenvalues
    if args.format == "human":
        print(
            f"other eigenvalues ({other['trees']} trees with n+1 <= M_max): "
            f"{other['violations']} violations, "
            f"{other['strict_discrepancies']} strict discrepancies"
        )
        print(f"records: {report.config.output_path}")
        print(f"summary: {out}.summary.json")
    return status


def _cmd_report(args) -> int:
    tally = Tally.read(args.path)
    tally.check_summary(args.path + ".summary.json")
    return _print_counts(tally, args.format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treemult",
        description="Exact eigenvalue multiplicities of trees and the "
        "pendant-count families realizing m = p-1 and m = p-2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mult", help="multiplicity m(T, lambda) plus p and gamma")
    _add_tree_source(p)
    p.add_argument("--lambda", dest="lam", type=_parse_lambda, required=True, metavar="i/M")
    _add_format(p)
    p.set_defaults(func=_cmd_mult)

    p = sub.add_parser("charpoly", help="characteristic polynomial coefficients")
    _add_tree_source(p)
    _add_format(p)
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser("classify", help="family membership with witness chain")
    _add_tree_source(p)
    p.add_argument("--lambda", dest="lam", type=_parse_lambda, required=True, metavar="i/M")
    p.add_argument("--mode", type=_parse_mode, default=BROAD)
    _add_format(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("generate", help="stream family members as graph6")
    p.add_argument("--family", choices=("gamma", "gamma2"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_parse_lambda, required=True, metavar="i/M")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--mode", type=_parse_mode, default=BROAD)
    _add_format(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("enumerate", help="stream canonical trees as graph6")
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run the exhaustive verification sweep")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True, help="largest eigenvalue denominator M")
    p.add_argument("--modes", type=_parse_modes, default="broad", help="comma list: broad,strict")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.add_argument("--out", help=f"records path (default under ${OUT_DIR_ENV} or .)")
    _add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="re-summarize an existing record file")
    p.add_argument("path")
    _add_format(p)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TreeError, InvalidSpecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineMismatchError as exc:
        print(f"error: EngineMismatchError: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
