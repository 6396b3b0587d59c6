import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import emprob
from emprob import pipeline, read_scores_csv
from emprob.cli import build_parser, config_from_args, main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

CHEAP_FLAGS = ["--n-components", "1", "--m-max", "1", "--density-samples", "11"]
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
    assert len(samples) == 12


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


def test_score_patient(tmp_path, capsys):
    assert main([*CHEAP_FLAGS, "score-patient", ALL_FIRST]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["answers"] == sorted(ALL_FIRST.split(","))
    assert doc["raw_sum"] == 7.2
    assert doc["normalized_sum"] == 0.6461538461538462
    assert doc["clamped"] is False
    for key in ("p_gmm_cdf", "p_kde_cdf", "p_posterior"):
        assert 0.0 <= doc[key] <= 1.0
    assert doc["category"] in ("LOW", "MEDIUM", "HIGH")


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


def test_n_components_auto_flag():
    args = build_parser().parse_args(["--n-components", "auto", "enumerate"])
    assert config_from_args(args).n_components is None


def test_invalid_thresholds_exit_2(capsys):
    assert main(["--thresholds", "0.9", "0.1", "enumerate"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_exit_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bogus": 1}))
    assert main(["--config", str(config), "enumerate"]) == 2
    assert "unknown config keys" in capsys.readouterr().err


SHIPPED_QUESTIONNAIRE = json.loads(
    (Path(emprob.__file__).parent / "data" / "questionnaire.json").read_text()
)
MERGE_WITHOUT_ID = {"source_answer_ids": ["a_3_q1", "a_4_q1"], "merged_answer": {"label": "x"}}
MALFORMED_INPUTS = {
    # probe -> (flag, file content)
    "merged-answer-without-id": (
        "--questionnaire", {**SHIPPED_QUESTIONNAIRE, "merge_rules": [MERGE_WITHOUT_ID]}
    ),
    "question-not-a-mapping": ("--questionnaire", {"questions": ["q1"]}),
    "questions-not-a-list": ("--questionnaire", {"questions": 5}),
    "thresholds-not-a-pair": ("--config", {"thresholds": 5}),
    "band-with-three-values": ("--config", {"bands": [[0.0, 0.5, 1.0]]}),
    "n-components-not-an-integer": ("--config", {"n_components": "two"}),
    "m-max-not-an-integer": ("--config", {"m_max": "4"}),
    "config-not-json": ("--config", "{not json"),
}


@pytest.mark.parametrize("flag, content", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS)
def test_malformed_input_exit_2(tmp_path, capsys, flag, content):
    path = tmp_path / "input.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    assert main([flag, str(path), "enumerate"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_missing_weights_exit_1(tmp_path, capsys):
    assert main(["--weights", str(tmp_path / "nope.csv"), "enumerate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def run_console_script(tmp_path, *args):
    """Run the declared ``emprob`` console script in a child interpreter.

    The child executes the two lines setuptools writes into an installed
    console script, so the check needs no install and no ``emprob`` on
    PATH; PYTHONPATH points at the emprob package this suite imported.
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(emprob.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", wrapper, *args],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
    )


def test_console_script_entry_point(tmp_path):
    proc = run_console_script(tmp_path, "enumerate")
    assert proc.returncode == 0, proc.stderr
    assert "cases: 1536" in proc.stdout
    proc = run_console_script(tmp_path, "--m-max", "0", "enumerate")
    assert proc.returncode == 2, proc.stderr
    assert "error: m_max must be at least 1" in proc.stderr
