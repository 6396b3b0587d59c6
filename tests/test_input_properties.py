"""Property tests: malformed inputs from outside the program raise only
ValidationError (exit code 2 on the command line), never a raw Python error.

Each property draws a fixed sequence of examples (derandomize), so a run is
reproducible and the suite stays fast.
"""

import copy
import json
import tempfile
from dataclasses import fields
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import emprob
from emprob import PipelineConfig, ValidationError, load_inputs, load_questionnaire
from emprob.schema import read_json_mapping
from reference_data import unmerged_questionnaire_doc, write_unmerged_inputs

PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

SHIPPED_QUESTIONNAIRE = read_json_mapping(
    Path(emprob.__file__).parent / "data" / "questionnaire.json"
)
with tempfile.TemporaryDirectory() as tmp:
    UNMERGED_WEIGHTS = Path(write_unmerged_inputs(Path(tmp))["weights_path"]).read_bytes()
DOCUMENT_KEYS = ("questions", "merge_rules", "id", "label", "mode", "answers",
                 "none_answer_id", "source_answer_ids", "merged_answer")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=3),
    max_leaves=6,
)


def node_paths(node, prefix=()):
    """The key path of every value in a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from node_paths(child, prefix + (key,))


@st.composite
def spliced_questionnaires(draw):
    """The shipped or the unmerged questionnaire document with one to three
    values replaced, or keys of the schema set, to arbitrary JSON values."""
    doc = copy.deepcopy(draw(st.sampled_from([SHIPPED_QUESTIONNAIRE,
                                              unmerged_questionnaire_doc()])))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(node_paths(doc))))
        value = draw(json_values)
        if not path:
            return value
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if isinstance(parent, dict):
            key = draw(st.sampled_from((key, *DOCUMENT_KEYS)))
        parent[key] = value
    return doc


@PROPERTY
@given(spliced_questionnaires())
def test_spliced_questionnaire_raises_only_validation_error(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "questionnaire.json"
        path.write_text(json.dumps(doc))
        try:
            load_questionnaire(path)
        except ValidationError:
            pass


@st.composite
def weight_file_bytes(draw):
    """Arbitrary bytes, or the unmerged 22-column weight file with a slice
    replaced by arbitrary bytes."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    start = draw(st.integers(0, len(UNMERGED_WEIGHTS)))
    stop = draw(st.integers(start, min(len(UNMERGED_WEIGHTS), start + 16)))
    return UNMERGED_WEIGHTS[:start] + draw(st.binary(max_size=16)) + UNMERGED_WEIGHTS[stop:]


@PROPERTY
@given(weight_file_bytes())
def test_weight_file_bytes_raise_only_validation_error(data):
    """Loading, validating and merging any weights file against the
    22-answer questionnaire either succeeds or raises ValidationError."""
    with tempfile.TemporaryDirectory() as tmp:
        inputs = write_unmerged_inputs(Path(tmp))
        Path(inputs["weights_path"]).write_bytes(data)
        try:
            load_inputs(PipelineConfig(**inputs))
        except ValidationError:
            pass


CONFIG_KEYS = tuple(f.name for f in fields(PipelineConfig))


@PROPERTY
@given(st.dictionaries(st.sampled_from(CONFIG_KEYS) | st.text(max_size=8), json_values,
                       max_size=4))
def test_config_mapping_raises_only_validation_error(doc):
    try:
        PipelineConfig.from_mapping(doc)
    except ValidationError:
        pass
