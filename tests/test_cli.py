import copy
import csv
import dataclasses
import functools
import json
import operator
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import emprob
from emprob import pipeline
from emprob.cli import _CONFIG_FLAGS, COMMANDS, build_parser, config_from_args, main
from reference_data import read_scores_csv, write_unmerged_inputs

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

CHEAP_FLAGS = ["--n-components", "1", "--m-max", "1"]
ALL_FIRST = "a_1_q1,a_1_q2,a_1_q3,a_1_q4,a_1_q5,a_1_q6"


def cheap(tmp_path, *rest):
    return [*CHEAP_FLAGS, "--output-dir", str(tmp_path), *rest]


def test_enumerate(capsys):
    assert main(["enumerate"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["questions: 6", "answers: 19", "cases: 1536"]


def test_fit(tmp_path, capsys):
    assert main(cheap(tmp_path, "fit")) == 0
    out = capsys.readouterr().out
    assert "selected 1 components (AIC favors 1, BIC favors 1)" in out
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert report["selected_components"] == 1
    assert len(report["selection"]["candidates"]) == 1
    samples = (tmp_path / "density_samples.csv").read_text().splitlines()
    assert len(samples) == 1002


def test_score(tmp_path, capsys):
    assert main(cheap(tmp_path, "score")) == 0
    assert "scored 1536 cases" in capsys.readouterr().out
    assert len((tmp_path / "scores.csv").read_text().splitlines()) == 1537


def test_tree(tmp_path, capsys):
    assert main(cheap(tmp_path, "tree")) == 0
    out = capsys.readouterr().out
    for name in ("tree_full.dot", "tree_pruned.dot"):
        assert (tmp_path / name).exists()
        assert re.search(rf"{name}: \d+ nodes, \d+ leaves, depth \d+", out)


def test_lattice_with_config_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "n_components": 1,
        "m_max": 1,
        "bands": [[0.0, 0.5], [0.5, 1.0]],
        "output_dir": str(tmp_path / "out"),
    }))
    assert main(["--config", str(config), "lattice"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"band \[0, 0\.5\): \d+ cases, \d+ concepts", out)
    assert re.search(r"band \[0\.5, 1\): \d+ cases, \d+ concepts", out)
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert names == {
        "band_0_0.5.cxt", "lattice_0_0.5.dot", "supports_0_0.5.csv",
        "band_0.5_1.cxt", "lattice_0.5_1.dot", "supports_0.5_1.csv",
    }


def test_report(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bands": [[0.0, 1.0]]}))
    args = ["--config", str(config), *cheap(tmp_path / "out", "report")]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "scored 1536 cases" in out
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert names == {
        "scores.csv", "fit_report.json", "density_samples.csv",
        "tree_full.dot", "tree_pruned.dot",
        "band_0_1.cxt", "lattice_0_1.dot", "supports_0_1.csv",
    }
    assert out.count("wrote ") == 8


@pytest.mark.parametrize("columns", [None, range(21, -1, -1)], ids=["in-order", "reversed"])
def test_unmerged_inputs_score_like_the_shipped_schema(tmp_path, capsys, columns):
    """The 22-answer questionnaire with its embedded merge rule and a
    22-column weight file, in any column order, score the 1,536 cases
    exactly as the shipped data."""
    inputs = write_unmerged_inputs(tmp_path, columns)
    flags = ["--n-components", "1", "--m-max", "1", "--output-dir"]
    assert main(["--questionnaire", inputs["questionnaire_path"],
                 "--weights", inputs["weights_path"], *flags, str(tmp_path / "u"), "score"]) == 0
    assert main([*flags, str(tmp_path / "default"), "score"]) == 0
    merged = (tmp_path / "u" / "scores.csv").read_bytes()
    assert merged == (tmp_path / "default" / "scores.csv").read_bytes()


def test_score_patient(tmp_path, capsys):
    """score-patient prints the case's scores.csv row: its answers, the
    score columns under the header's names, and the category."""
    assert main(cheap(tmp_path, "score")) == 0
    with open(tmp_path / "scores.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    n_answers = len(emprob.default_questionnaire().answer_ids)
    answer_ids, columns = header[1:1 + n_answers], header[1 + n_answers:-1]
    assert (header[0], header[-1]) == ("case_id", "category")
    capsys.readouterr()
    assert main([*CHEAP_FLAGS, "score-patient", ALL_FIRST]) == 0
    doc = json.loads(capsys.readouterr().out)
    answers = sorted(ALL_FIRST.split(","))
    assert doc["answers"] == answers
    assert doc["raw_sum"] == 7.2
    assert doc["normalized_sum"] == 0.6461538461538462
    assert sorted(doc) == sorted(["answers", *columns, "category"])
    for key in ("p_gmm_cdf", "p_kde_cdf", "p_posterior"):
        assert 0.0 <= doc[key] <= 1.0
    [row] = [r for r in rows
             if sorted(a for a, v in zip(answer_ids, r[1:1 + n_answers]) if v == "1") == answers]
    for column, text in zip(columns, row[1 + n_answers:-1]):
        assert doc[column] == float(text), column
    assert doc["category"] == row[-1]


@pytest.fixture
def stage_calls(monkeypatch):
    """Counts the pipeline's EM fits (by component count), tree growths and
    lattice builds."""
    calls = {"em_fit": [], "fit_decision_tree": [], "build_lattice": []}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(pipeline, name), **kwargs):
            calls[_name].append(args[1] if _name == "em_fit" else None)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counting)
    return calls


def test_subcommands_write_report_in_parts(tmp_path, capsys, stage_calls):
    """fit, score, tree and lattice each compute only the stages behind
    their own files, and together write report's files byte for byte."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bands": [[0.0, 0.5], [0.5, 1.0]]}))
    needs = {  # subcommand -> (EM fits, tree growths, lattice builds)
        "fit": (1, 0, 0), "score": (1, 0, 0), "tree": (1, 1, 0), "lattice": (1, 0, 2),
    }
    parts = {}
    for command, counts in needs.items():
        out = tmp_path / command
        assert main(["--config", str(config), *cheap(out, command)]) == 0
        assert tuple(len(c) for c in stage_calls.values()) == counts, command
        for c in stage_calls.values():
            c.clear()
        for p in out.iterdir():
            assert p.name not in parts, p.name
            parts[p.name] = p.read_bytes()
    assert main(["--config", str(config), *cheap(tmp_path / "report", "report")]) == 0
    report = {p.name: p.read_bytes() for p in (tmp_path / "report").iterdir()}
    assert sorted(parts) == sorted(report)
    for name, data in report.items():
        assert parts[name] == data, name


def test_score_patient_fits_one_mixture(tmp_path, capsys, stage_calls):
    assert main(["--output-dir", str(tmp_path), "score"]) == 0
    batch = read_scores_csv(tmp_path / "scores.csv")
    capsys.readouterr()
    for c in stage_calls.values():
        c.clear()
    answers = "a_2_q1,a_3_q1,a_2_q2,a_1_q3,a_2_q4,a_3_q5,a_1_q6"
    assert main(["score-patient", answers]) == 0
    assert stage_calls == {"em_fit": [2], "fit_decision_tree": [], "build_lattice": []}
    doc = json.loads(capsys.readouterr().out)
    chosen = set(answers.split(","))
    row = [i for i in range(len(batch.case_ids))
           if {a for a, v in zip(batch.answer_ids, batch.matrix[i]) if v} == chosen]
    assert len(row) == 1
    i = row[0]
    assert doc["raw_sum"] == batch.raw_sums[i]
    assert doc["normalized_sum"] == batch.normalized[i]
    assert doc["p_gmm_cdf"] == batch.score_gmm_cdf[i]
    assert doc["p_kde_cdf"] == batch.score_kde_cdf[i]
    assert doc["p_posterior"] == batch.score_posterior[i]
    assert doc["category"] == ("LOW", "MEDIUM", "HIGH")[batch.category[i]]


def test_score_patient_rejects_bad_answers_before_fitting(capsys, stage_calls):
    for answers in ("a_1_q1", f"{ALL_FIRST},a_9_q9"):  # inadmissible, unknown id
        assert main(["score-patient", answers]) == 2, answers
        assert stage_calls["em_fit"] == [], answers
        assert "error:" in capsys.readouterr().err


def test_score_patient_rejects_empty_ids(capsys):
    assert main(["score-patient", " , "]) == 2
    assert "error:" in capsys.readouterr().err


def test_flag_overrides_config_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"prune_alpha": 0.05, "output_dir": "from_file"}))
    args = build_parser().parse_args(
        ["--config", str(config), "--prune-alpha", "0.02", "enumerate"]
    )
    cfg = config_from_args(args)
    assert cfg.prune_alpha == 0.02
    assert cfg.output_dir == "from_file"


def test_config_flags_match_config_fields():
    """Every config flag sets a config field, and the only fields without
    one are those a flag cannot carry plus thresholds, which has its own
    two-value flag; a new setting gets a flag, or not, on purpose."""
    keys = [key for _, key, _, _ in _CONFIG_FLAGS]
    names = {f.name for f in dataclasses.fields(pipeline.PipelineConfig)}
    assert len(set(keys)) == len(keys)
    assert set(keys) <= names
    assert names - set(keys) == {"bands", "thresholds"}
    args = build_parser().parse_args(["--thresholds", "0.2", "0.5", "enumerate"])
    assert config_from_args(args).thresholds == (0.2, 0.5)


def test_n_components_auto_flag():
    args = build_parser().parse_args(["--n-components", "auto", "enumerate"])
    assert config_from_args(args).n_components is None


def test_invalid_thresholds_exit_2(capsys):
    assert main(["--thresholds", "0.9", "0.1", "enumerate"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_exit_2(tmp_path, capsys):
    """Merge rules come only from the questionnaire document, so a config
    file's merge_rules is an unknown key like any other."""
    config = tmp_path / "config.json"
    rule = {"source_answer_ids": ["a_3_q1", "a_4_q1"],
            "merged_answer": {"id": "a_34_q1", "label": "Joint pain/ Itching"}}
    for doc in ({"bogus": 1}, {"merge_rules": [rule]}):
        config.write_text(json.dumps(doc))
        assert main(["--config", str(config), "enumerate"]) == 2
        assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("bands, tag", [
    ([[0.0, 0.5], [0.0, 0.5]], "0_0.5"),
    ([[0.0, 0.1234567], [0.0, 0.12345678]], "0_0.123457"),
], ids=["repeated-band", "same-file-tag"])
def test_bands_sharing_a_file_tag_exit_2(tmp_path, capsys, bands, tag):
    """Two bands with one file tag would write the same three files."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bands": bands}))
    out = tmp_path / "out"
    assert main(["--config", str(config), "--output-dir", str(out), "lattice"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: bands")
    assert captured.err.rstrip().endswith(f"share the file tag {tag!r}")
    assert "wrote" not in captured.out
    assert not out.exists()


SHIPPED_QUESTIONNAIRE = json.loads(
    (Path(emprob.__file__).parent / "data" / "questionnaire.json").read_text()
)
MERGE_WITHOUT_ID = {"source_answer_ids": ["a_3_q1", "a_4_q1"], "merged_answer": {"label": "x"}}
MERGE_RULE = {"source_answer_ids": ["a_3_q1", "a_4_q1"], "merged_answer": {"id": "m", "label": "x"}}


def shipped_with(path, value):
    """The shipped questionnaire plus MERGE_RULE, with the field at ``path``
    (keys and list positions) set to ``value``."""
    doc = copy.deepcopy({**SHIPPED_QUESTIONNAIRE, "merge_rules": [MERGE_RULE]})
    *parents, last = path
    functools.reduce(operator.getitem, parents, doc)[last] = value
    return doc


MALFORMED_INPUTS = {
    # probe -> (flag, file content)
    "merged-answer-without-id": (
        "--questionnaire", {**SHIPPED_QUESTIONNAIRE, "merge_rules": [MERGE_WITHOUT_ID]}
    ),
    "question-not-a-mapping": ("--questionnaire", {"questions": ["q1"]}),
    # questionnaire fields are JSON strings, never coerced
    "question-id-a-list": ("--questionnaire", shipped_with(["questions", 0, "id"], ["q1"])),
    "question-label-a-number": ("--questionnaire", shipped_with(["questions", 0, "label"], 5)),
    "question-mode-a-list": (
        "--questionnaire", shipped_with(["questions", 1, "mode"], ["exclusive"])
    ),
    "answer-id-a-number": (
        "--questionnaire", shipped_with(["questions", 1, "answers", 0, "id"], 7)
    ),
    "answer-label-null": (
        "--questionnaire", shipped_with(["questions", 1, "answers", 0, "label"], None)
    ),
    "merged-answer-id-a-list": (
        "--questionnaire", shipped_with(["merge_rules", 0, "merged_answer", "id"], ["m"])
    ),
    "merged-answer-label-a-number": (
        "--questionnaire", shipped_with(["merge_rules", 0, "merged_answer", "label"], 1)
    ),
    "merge-source-a-number": (
        "--questionnaire", shipped_with(["merge_rules", 0, "source_answer_ids", 1], 4)
    ),
    "questions-not-a-list": ("--questionnaire", {"questions": 5}),
    "thresholds-not-a-pair": ("--config", {"thresholds": 5}),
    "band-with-three-values": ("--config", {"bands": [[0.0, 0.5, 1.0]]}),
    "n-components-not-an-integer": ("--config", {"n_components": "two"}),
    "m-max-not-an-integer": ("--config", {"m_max": "4"}),
    "config-not-json": ("--config", "{not json"),
    "weights-not-utf-8": ("--weights", b"doctor,a\xff\n"),
    "prune-alpha-nan": ("--config", {"prune_alpha": float("nan")}),
    # settings that are now constants: unknown config keys
    "em-tol-nan": ("--config", {"em_tol": float("nan")}),
    "em-tol-negative": ("--config", {"em_tol": -1.0}),
    "em-max-iter-zero": ("--config", {"em_max_iter": 0}),
    "tree-max-depth-negative": ("--config", {"tree_max_depth": -1}),
}


@pytest.mark.parametrize("flag, content", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS)
def test_malformed_input_exit_2(tmp_path, capsys, flag, content):
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    assert main([flag, str(path), "enumerate"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


SHIPPED_WEIGHTS = (Path(emprob.__file__).parent / "data" / "weights.csv").read_text()


@pytest.mark.parametrize("answer_id", ["x,y", "x;y", "x\ny", "x\ry", 'x"y', ""],
                         ids=["comma", "semicolon", "newline", "carriage-return", "quote",
                              "empty"])
def test_answer_id_that_breaks_written_files_exit_2(tmp_path, capsys, answer_id):
    """An answer id that cannot be a CSV cell, a supports key ("a;b") or a
    CXT line is rejected as the questionnaire is read, before any stage."""
    escaped = json.dumps(answer_id)[1:-1]
    (tmp_path / "questionnaire.json").write_text(
        json.dumps(SHIPPED_QUESTIONNAIRE).replace("a_4_q2", escaped))
    header, body = SHIPPED_WEIGHTS.split("\n", 1)
    cells = ['"' + answer_id.replace('"', '""') + '"' if c == "a_4_q2" else c
             for c in header.split(",")]
    (tmp_path / "weights.csv").write_text(",".join(cells) + "\n" + body)
    out = tmp_path / "out"
    assert main(["--questionnaire", str(tmp_path / "questionnaire.json"),
                 "--weights", str(tmp_path / "weights.csv"),
                 "--output-dir", str(out), "report"]) == 2
    assert capsys.readouterr().err.startswith("error: answer id")
    assert not out.exists()


def test_missing_questionnaire_exit_1_without_output_dir(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--questionnaire", str(tmp_path / "nope.json"),
                 "--output-dir", str(out), "report"]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


DEGENERATE = "EM needs more distinct values than components, got 364 <= "


@pytest.mark.parametrize("flags, message, fits", [
    (["--weights", "zero_weights.csv", "--output-dir", "out", "report"], "cannot normalize", []),
    (["--n-components", "2000", "--output-dir", "out", "fit"], DEGENERATE + "2000", [2000]),
    (["--n-components", "400", "--output-dir", "out", "score-patient",
      "a_2_q1,a_3_q2,a_1_q3,a_1_q4,a_2_q5,a_1_q6"], DEGENERATE + "400", [400]),
    (["--m-max", "364", "--output-dir", "out", "fit"], DEGENERATE + "364", []),
    (["--config", "huge.json", "--output-dir", "out", "fit"], DEGENERATE + str(10**30), []),
], ids=["all-zero-weights", "too-many-components", "n-components-400", "m-max-364",
        "m-max-1e30"])
def test_rejected_inputs_leave_no_output_dir(
    tmp_path, monkeypatch, capsys, stage_calls, flags, message, fits
):
    """Inputs that load but fail a later stage leave no directory either.
    The shipped sums take 364 distinct values, and a mixture of 364 or more
    components has an unbounded likelihood: em_fit rejects such a count
    before its first cycle, and a selection up to it is rejected before its
    first fit, so each run ends within seconds."""
    monkeypatch.chdir(tmp_path)
    header, body = SHIPPED_WEIGHTS.split("\n", 1)
    zeros = [row.split(",")[0] + ",0" * row.count(",") for row in body.split()]
    Path("zero_weights.csv").write_text("\n".join([header, *zeros]) + "\n")
    Path("huge.json").write_text(json.dumps({"m_max": 10**30}))
    start = time.perf_counter()
    assert main(flags) == 2
    assert time.perf_counter() - start < 10
    assert f"error: {message}" in capsys.readouterr().err
    assert stage_calls["em_fit"] == fits
    assert not Path("out").exists()


def test_end_of_options_marker_before_the_subcommand(capsys):
    assert main(["--", "enumerate"]) == 0
    assert capsys.readouterr().out.splitlines() == ["questions: 6", "answers: 19", "cases: 1536"]
    with pytest.raises(SystemExit) as exc:
        main(["--", "--m-max", "2", "enumerate"])  # after the marker, no flag
    assert exc.value.code == 2
    assert "'--m-max'" in capsys.readouterr().err


REMOVED_SETTINGS = {  # probe -> (flags, config document) of a setting now fixed
    "em-tol-nan": (["--em-tol", "nan"], {"em_tol": float("nan")}),
    "em-tol-negative": (["--em-tol", "-1"], {"em_tol": -1.0}),
    "em-max-iter-zero": (["--em-max-iter", "0"], {"em_max_iter": 0}),
    "tree-max-depth": (["--tree-max-depth", "3"], {"tree_max_depth": 3}),
    "min-samples-leaf": (["--min-samples-leaf", "64"], {"min_samples_leaf": 64}),
    "density-samples": (["--density-samples", "11"], {"density_samples": 11}),
}


@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "score-patient"]
                         + [f"score-patient {ALL_FIRST}"])
@pytest.mark.parametrize("flags, doc", REMOVED_SETTINGS.values(), ids=REMOVED_SETTINGS)
def test_bad_em_settings_exit_2(tmp_path, capsys, flags, doc, command):
    """EM's stop rule, the tree's growth and the density grid are fixed: a
    flag or config key for one is a usage error, raised before any stage
    runs or any file is written."""
    out = tmp_path / "out"
    flag, value = flags
    for given in (flags, [f"{flag}={value}"]):  # the error names the flag, not its value
        with pytest.raises(SystemExit) as exc:
            main([*given, "--output-dir", str(out), *command.split()])
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {flag}" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["--config", str(config), "--output-dir", str(out), *command.split()]) == 2
    assert capsys.readouterr().err.startswith("error: unknown config keys")
    assert not out.exists()


def test_missing_weights_exit_1(tmp_path, capsys):
    assert main(["--weights", str(tmp_path / "nope.csv"), "enumerate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_abbreviated_global_flags_still_parse(capsys):
    assert main(["--m-m", "0", "enumerate"]) == 2  # --m-max
    assert "error: m_max must be at least 1" in capsys.readouterr().err


def run_python(tmp_path, *args):
    """Run a child interpreter that imports the emprob package this suite
    imported (through PYTHONPATH)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(emprob.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
    )


def test_importing_the_cli_loads_no_scipy(tmp_path):
    """scipy is a test dependency only: importing it would make up about
    half of a score-patient call's start-up."""
    proc = run_python(tmp_path, "-c", "import sys, emprob, emprob.cli; "
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def run_console_script(tmp_path, *args):
    """Run the declared ``emprob`` console script in a child interpreter.

    The child executes the two lines setuptools writes into an installed
    console script, so the check needs no install and no ``emprob`` on
    PATH.
    """
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    match = re.fullmatch(r"(\w+(?:\.\w+)*):(\w+)", scripts["emprob"])
    assert match, f"emprob entry point {scripts['emprob']!r} is not module:function"
    module, func = match.groups()
    wrapper = (
        f"import sys; from {module} import {func}; "
        f"sys.argv[0] = 'emprob'; sys.exit({func}())"
    )
    return run_python(tmp_path, "-c", wrapper, *args)


def test_console_script_entry_point(tmp_path):
    proc = run_console_script(tmp_path, "enumerate")
    assert proc.returncode == 0, proc.stderr
    assert "cases: 1536" in proc.stdout
    proc = run_console_script(tmp_path, "--m-max", "0", "enumerate")
    assert proc.returncode == 2, proc.stderr
    assert "error: m_max must be at least 1" in proc.stderr
