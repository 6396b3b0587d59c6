"""Checks of the public names: the package exports what it lists, every
exported name and every public member of an exported class has a caller
outside the tests, and every name the demos import from it exists.  The
demos are read, and each one is also run."""

import ast
import dataclasses
import enum
import functools
import hashlib
import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import emprob

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# SHA-256 of each demo's stdout, with the directory it runs in as "<dir>"
DEMO_STDOUT_SHA256 = {
    "01_scoring_walkthrough.py": "4c245aaae85dd42a245a38bfb58179e5f2a5c351cc01b1e500b449bc69f925b7",
    "02_density_fit.py": "f999589bbd7f3b881363c67c5a21105c9da6e2e148a56c75715e0e4e3a70838c",
    "03_decision_tree.py": "95116e94971f2bed8d744110a8c8117f5672ce6a4a4467684a1e3f78accccd79",
    "04_concept_lattice.py": "546c7f976176b325a02da4a482f8922bab608e30be6f6b015d7342c077a5bbea",
    "05_single_patient.py": "5c94ebd27459787bd4f856386e29b6fd044b56834e0a82cfab1f2401391b2ecc",
}


def test_every_exported_name_resolves():
    missing = [name for name in emprob.__all__ if not hasattr(emprob, name)]
    assert not missing
    assert len(set(emprob.__all__)) == len(emprob.__all__)
    imported = {name for _, name in emprob_imports(Path(emprob.__file__))}
    assert imported == set(emprob.__all__)


def dotted_parts(node):
    """The parts of a dotted-name string constant (the benchmark names what
    it wraps as "module.function" strings); none for any other node."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and all(
        part.isidentifier() for part in node.value.split(".")
    ):
        return node.value.split(".")
    return []


def referenced_names(path):
    """Identifiers the file's code loads, reads as attributes or imports, and
    the parts of its dotted-name strings."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        else:
            yield from dotted_parts(node)


def caller_paths():
    """The package itself (outside its own export list), the demos and the
    benchmark."""
    package = Path(emprob.__file__).parent
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    return paths + [*DEMOS, *(ROOT / "bench").glob("*.py")]


def test_every_exported_name_has_a_caller_outside_the_tests():
    """A public name must be used by the package itself (outside the
    definition and the package's own export list), by a demo, or by the
    benchmark; a name only the tests use belongs with the tests."""
    used = {name for path in caller_paths() for name in referenced_names(path)}
    assert sorted(set(emprob.__all__) - used) == []


def read_members(path):
    """Attribute names the file's code reads (an assignment such as
    ``node.x = ...`` is no read), and the parts of its dotted-name strings."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        else:
            yield from dotted_parts(node)


def public_members(cls):
    """The public dataclass fields, properties, methods and classmethods a
    class defines itself; enum members are not counted."""
    names = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    names |= {name for name, value in vars(cls).items() if callable(value) or isinstance(
        value, (property, classmethod, functools.cached_property))}
    if issubclass(cls, enum.Enum):
        names -= set(cls.__members__)
    return sorted(name for name in names if not name.startswith("_"))


def test_every_public_member_has_a_reader_outside_the_tests():
    """Each public field, property and method of an exported class must be
    read by name where the exported names are used; a member only the tests
    read belongs with the tests."""
    read = {name for path in caller_paths() for name in read_members(path)}
    classes = [getattr(emprob, name) for name in emprob.__all__]
    unread = [f"{cls.__name__}.{member}" for cls in classes if isinstance(cls, type)
              for member in public_members(cls) if member not in read]
    assert sorted(unread) == []


def emprob_imports(path):
    """(module, name) for each name the file imports from an emprob module;
    name is None for a plain ``import emprob...``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module and (
            node.module == "emprob" or node.module.startswith("emprob.")
        ):
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "emprob")


def test_demos_exist():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    imports = list(emprob_imports(demo))
    assert imports, f"{demo.name} imports nothing from emprob"
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{demo.name}: {module}.{name}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(tmp_path, demo):
    """Run a copy of the demo in a child interpreter against the emprob
    package this suite imported; a demo that writes files writes them
    beside the copy, not into the source tree.  Its output must stay the
    same, byte for byte."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(emprob.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    copy = tmp_path / demo.name
    shutil.copyfile(demo, copy)
    proc = subprocess.run([sys.executable, str(copy)], capture_output=True, text=True,
                          timeout=120, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    stdout = proc.stdout.replace(str(tmp_path), "<dir>")
    assert hashlib.sha256(stdout.encode()).hexdigest() == DEMO_STDOUT_SHA256[demo.name], stdout
