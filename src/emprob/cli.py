"""Command-line interface.

Each subcommand reads what it needs from one lazy pipeline
(PipelineResult), so it computes only the stages behind its own output:

- enumerate: case-space size summary
- fit: density fit report and sampled curves
- score: the per-case score table
- tree: decision-tree exports (full and pruned)
- lattice: per-band context, lattice, and support exports
- report: everything the pipeline produces
- score-patient: score one answer combination, printed as JSON

Configuration comes from an optional JSON config file plus flag overrides.
Exit codes: 0 on success, 2 on validation errors, 1 on runtime errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from emprob.cases import CaseVector, canonical_index
from emprob.pipeline import (
    PipelineConfig,
    PipelineResult,
    write_artifacts,
    write_fit,
    write_lattices,
    write_scores,
    write_trees,
)
from emprob.schema import ValidationError
from emprob.scoring import score_patient


def _n_components(text: str) -> int | None:
    return None if text == "auto" else int(text)


_CONFIG_FLAGS = (
    # (flag, config key, type, help)
    ("--questionnaire", "questionnaire_path", str, "questionnaire JSON path (default: shipped data)"),
    ("--weights", "weights_path", str, "weight matrix CSV path (default: shipped data)"),
    ("--output-dir", "output_dir", str, "directory for written artifacts"),
    ("--m-max", "m_max", int, "largest component count to try during selection"),
    ("--prune-alpha", "prune_alpha", float, "cost-complexity pruning strength"),
    ("--band-approach", "band_approach", int, "score used for banding: 1, 2, or 3"),
    ("--n-components", "n_components", _n_components,
     "mixture size, or 'auto' to pick by information criterion"),
)


def _print_case_space(result: PipelineResult, args: argparse.Namespace) -> None:
    print(f"questions: {len(result.questionnaire.questions)}")
    print(f"answers: {len(result.questionnaire.answer_ids)}")
    print(f"cases: {len(result.case_set)}")


def _print_selection(result: PipelineResult, args: argparse.Namespace) -> None:
    sel = result.selection
    print(
        f"selected {result.gmm.n_components} components "
        f"(AIC favors {sel.aic_best_m}, BIC favors {sel.bic_best_m})"
    )


def _print_case_count(result: PipelineResult, args: argparse.Namespace) -> None:
    print(f"scored {len(result.table)} cases")


def _print_trees(result: PipelineResult, args: argparse.Namespace) -> None:
    from emprob.tree import leaf_count, node_count, tree_depth

    for name, tree in (("tree_full.dot", result.tree_full), ("tree_pruned.dot", result.tree_pruned)):
        print(
            f"{name}: {node_count(tree)} nodes, {leaf_count(tree)} leaves, "
            f"depth {tree_depth(tree)}"
        )


def _print_lattices(result: PipelineResult, args: argparse.Namespace) -> None:
    for band, lattice in result.lattices:
        print(
            f"band [{band[0]:g}, {band[1]:g}): {lattice.context.n_objects} cases, "
            f"{len(lattice.intents)} concepts"
        )


def _print_patient(result: PipelineResult, args: argparse.Namespace) -> None:
    ids = tuple(a.strip() for a in args.answers.split(",") if a.strip())
    if not ids:
        raise ValidationError("no answer ids given")
    case = CaseVector(true_answers=frozenset(ids))
    canonical_index(case, result.questionnaire)  # validates before any model is fitted
    row = score_patient(case, result.sum_table, result.gmm, result.kde,
                        thresholds=result.config.thresholds)
    print(json.dumps(row, indent=2, sort_keys=True))


# subcommand -> (help, artifact writer or None, summary printer)
COMMANDS = {
    "enumerate": ("print the case-space size", None, _print_case_space),
    "fit": ("write the fit report and density samples", write_fit, _print_selection),
    "score": ("write the score table", write_scores, _print_case_count),
    "tree": ("write the decision-tree DOT files", write_trees, _print_trees),
    "lattice": ("write per-band CXT, lattice DOT, and supports", write_lattices, _print_lattices),
    "report": ("write every artifact", write_artifacts, _print_case_count),
    "score-patient": ("score one answer combination", None, _print_patient),
}


def build_parser() -> argparse.ArgumentParser:
    # a config flag that is not given leaves no attribute, so that it does
    # not override the config file
    parser = argparse.ArgumentParser(
        prog="emprob",
        description="Batch probability scoring over a questionnaire case space.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--config", metavar="PATH", default=None, help="JSON config file")
    for flag, key, typ, help_text in _CONFIG_FLAGS:
        parser.add_argument(flag, dest=key, type=typ, help=help_text)
    parser.add_argument(
        "--thresholds",
        type=float,
        nargs=2,
        metavar=("T1", "T2"),
        help="category boundaries, 0 < T1 < T2 < 1",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        sub.add_parser(name, help=help_text)
    sub.choices["score-patient"].add_argument(
        "answers", help="comma-separated answer ids, e.g. a_1_q1,a_2_q2"
    )
    return parser


def _global_args(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """argv with an end-of-options marker ``--`` before the subcommand
    dropped; an unknown flag before the subcommand is a usage error.

    argparse takes the value after an unknown flag for the subcommand and
    names that value instead (``--em-tol nan report``: invalid choice
    'nan'), and takes a ``--`` for the subcommand itself, so the global
    flags are read here first, by their arity, with argparse's unique-prefix
    abbreviations.
    """
    arity = {"-h": 0, "--help": 0, "--config": 1, "--thresholds": 2}
    arity.update((flag, 1) for flag, *_ in _CONFIG_FLAGS)
    i = 0
    while i < len(argv) and argv[i].startswith("-") and argv[i] != "-":
        if argv[i] == "--":
            if i + 1 < len(argv) and argv[i + 1].startswith("-"):
                parser.error(f"expected a subcommand after '--', got {argv[i + 1]!r}")
            return argv[:i] + argv[i + 1:]
        name, eq, _ = argv[i].partition("=")
        known = [f for f in arity if f == name] or [f for f in arity if f.startswith(name)]
        if not known:
            parser.error(f"unrecognized arguments: {name}")
        if len(known) > 1:
            break  # ambiguous: argparse lists the candidates
        i += 1 if eq else 1 + arity[known[0]]
    return argv


def config_from_args(args: argparse.Namespace) -> PipelineConfig:
    flags = {k: v for k, v in vars(args).items() if k not in ("config", "command", "answers")}
    if args.config is None:
        return PipelineConfig.from_mapping(flags)
    return PipelineConfig.from_file(args.config, **flags)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_global_args(parser, sys.argv[1:] if argv is None else argv))
    try:
        result = PipelineResult(config_from_args(args))
        _, write, summarize = COMMANDS[args.command]
        paths = [] if write is None else write(result)
        summarize(result, args)
        for path in paths:
            print(f"wrote {path}")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001  (CLI boundary)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
