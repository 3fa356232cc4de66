"""The import boundary of the command line, and no unused imports.

`python -m coverhom` loads only `cli` and `errors` until a command is about
to run, so help, usage errors and a malformed `--batch` file cost no more
than the parser, and `--help` imports no `dataclasses`. Once a command runs,
every library layer is loaded; the benchmark's tracer wraps functions in all
of them after its untraced passes. Each command's module set is pinned.
"""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import coverhom

ROOT = Path(__file__).resolve().parent.parent

# Runs `python -m coverhom ARGS...` in process, then prints its exit code and
# the modules it loaded out of the coverhom ones and dataclasses.
SCRIPT = """
import contextlib, io, json, runpy, sys
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        runpy.run_module("coverhom", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
loaded = sorted(m for m in sys.modules if m.startswith("coverhom") or m == "dataclasses")
print(json.dumps({"code": code, "loaded": loaded}))
"""

START = {"coverhom", "coverhom.cli", "coverhom.errors"}
EVERY_LAYER = START | {f"coverhom.{m}" for m in ("intlinalg", "plumbing", "homology", "cover", "reportio")}


def run_module(tmp_path, *argv):
    src = os.path.dirname(os.path.dirname(coverhom.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    return result["code"], set(result["loaded"])


def spans_modules():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {f"coverhom.{name}" for name in spans.MODULES}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["snf", "--help"], 0),
        (["no-such-command"], 2),
        (["example2", "--no-such-flag"], 2),
        (["--batch", "batch.json"], 2),
    ],
    ids=["help", "command-help", "unknown-command", "bad-flag", "malformed-batch"],
)
def test_no_library_layer_before_a_command_runs(tmp_path, argv, code):
    # The second entry is malformed, so the batch stops after parsing.
    (tmp_path / "batch.json").write_text(json.dumps([{"command": "kollar", "omega_pullback": True,
                                                      "target_pi2_trivial": True}, {"command": "snf"}]))
    got, loaded = run_module(tmp_path, *argv)
    assert got == code
    assert loaded == START


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["--help"], START),
        (["example2"], EVERY_LAYER | {"dataclasses"}),
        (["kodaira-thurston"], EVERY_LAYER | {"dataclasses"}),
        (["tower7"], EVERY_LAYER | {"dataclasses"}),
        (["catalog"], EVERY_LAYER | {"dataclasses"}),
        (["kollar", "--omega-pullback", "--target-pi2-trivial"], EVERY_LAYER | {"dataclasses"}),
        (["snf", "m.json"], EVERY_LAYER | {"dataclasses"}),
    ],
    ids=["help", "example2", "kodaira-thurston", "tower7", "catalog", "kollar", "snf"],
)
def test_each_command_loads_its_module_set(tmp_path, argv, modules):
    # --help costs no more than the parser, and dataclasses no import time; every command loads every layer.
    (tmp_path / "m.json").write_text(json.dumps({"rows": 1, "cols": 1, "entries": [2]}))
    got, loaded = run_module(tmp_path, *argv)
    assert got == 0
    assert loaded == modules


@pytest.mark.parametrize("command", ["kollar", "snf"])
def test_every_layer_loaded_after_one_command(tmp_path, command):
    (tmp_path / "m.json").write_text(json.dumps({"rows": 1, "cols": 1, "entries": [2]}))
    argv = ["kollar", "--omega-pullback", "--target-pi2-trivial"] if command == "kollar" else ["snf", "m.json"]
    got, loaded = run_module(tmp_path, *argv)
    assert got == 0
    assert spans_modules() <= loaded


def unused_top_level_imports(source: str) -> list[str]:
    """Names a module imports at top level and never reads; a name listed in __all__ counts as read."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(elt.value for elt in node.value.elts)
    return sorted(bound - read)


def test_every_size_refusal_is_worded_by_admit():
    # errors.admit words every size refusal; no other module writes its phrase, or the budget's old one.
    for path in sorted((ROOT / "src" / "coverhom").glob("*.py")):
        if path.name != "errors.py":
            assert not re.search("above the (limit|budget) of", path.read_text()), path.name


def test_unused_import_detection():
    source = "import os.path\nimport json\nfrom x import y, z as w\n__all__ = ['y']\nprint(json.dumps(w))\n"
    assert unused_top_level_imports(source) == ["os"]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted((ROOT / "src" / "coverhom").glob("*.py"))
    unused = {path.name: unused_top_level_imports(path.read_text()) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def class_members(node: ast.ClassDef) -> list[str]:
    """The methods, fields and class attributes a class body defines."""
    names = []
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(item.name)
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            names.append(item.target.id)
        elif isinstance(item, ast.Assign):
            names += [t.id for t in item.targets if isinstance(t, ast.Name)]
    return names


def public_names(source: str) -> list[str]:
    """The names a module lists in __all__, and `Class.member` for each public member of its classes."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names += [elt.value for elt in node.value.elts]
        elif isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{m}" for m in class_members(node) if not m.startswith("_")]
    return names


def names_read(module: str, source: str) -> set[str]:
    """What a module reads: `owner.name` for a module-level name, `.attr` for any attribute.

    A name counts as read from its own module when the module loads it
    (`module.name`), and from another module when it is imported from there
    (`from .other import name`) or read as an attribute of that module
    (`other.name`). A local variable elsewhere that happens to share the
    name does not count. Two attribute reads say nothing of the package's
    own members, so they do not count as `.attr`: an attribute of an
    imported stdlib module (`operator.mul`), and a class's read of one of
    its own fields in its `__post_init__`, which only checks the field.
    """
    tree = ast.parse(source)
    stdlib = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] in sys.stdlib_module_names
    }
    own = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__" and fn.args.args
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == fn.args.args[0].arg
    }
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(f"{module}.{node.id}")
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if getattr(root, "id", None) in stdlib:  # os.path.join as much as operator.mul
                continue
            owner = getattr(node.value, "id", None)
            if id(node) not in own:
                read.add(f".{node.attr}")
            if owner is not None:
                read.add(f"{owner}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module:
            owner = node.module.rsplit(".", 1)[-1]
            read.update(f"{owner}.{alias.name}" for alias in node.names)
    return read


def dead_public_names(sources: dict[str, str], entry_points: set[str]) -> list[str]:
    """`module.name` for each public name or class member that no module reads and no entry point names.

    Entry points are given as `module.name`. A class member counts as read
    when any module reads an attribute of that name.
    """
    read = set().union(*(names_read(module, source) for module, source in sources.items())) | entry_points
    dead = []
    for module, source in sources.items():
        for name in public_names(source):
            cls, _, member = name.rpartition(".")
            if (f".{member}" if cls else f"{module}.{name}") not in read:
                dead.append(f"{module}.{name}")
    return sorted(dead)


def test_dead_public_name_detection():
    sources = {
        "a": "__all__ = ['used', 'dead', 'main']\ndef used(): pass\ndef dead(): pass\ndef main(): used()\n",
        "b": "from .a import dead as _\n",
    }
    assert dead_public_names(sources, {"a.main"}) == []
    assert dead_public_names({"a": sources["a"]}, {"a.main"}) == ["a.dead"]
    assert dead_public_names({"a": sources["a"]}, set()) == ["a.dead", "a.main"]
    # Read as an attribute of its module, it is used; a local of the same name elsewhere does not use it.
    assert dead_public_names({"a": sources["a"], "b": "from . import a\nprint(a.dead)\n"}, {"a.main"}) == []
    shadow = "def f():\n    dead = 1\n    return dead, x.dead\n"
    assert dead_public_names({"a": sources["a"], "b": shadow}, {"a.main"}) == ["a.dead"]
    # An attribute of a stdlib module, even one bound to a package module's name, reads nothing of the package.
    aliased = "import operator as a\nprint(a.dead)\n"
    assert dead_public_names({"a": sources["a"], "b": aliased}, {"a.main"}) == ["a.dead"]
    # A field that only its class's __post_init__ reads is dead; a read of it elsewhere keeps it.
    checked = "__all__ = ['P']\nclass P:\n    x: int\n    def __post_init__(self): check(self.x)\n"
    assert dead_public_names({"a": checked}, {"a.P"}) == ["a.P.x"]
    assert dead_public_names({"a": checked, "b": "def g(p): return p.x\n"}, {"a.P"}) == []


def test_dead_class_member_detection():
    source = (
        "class M:\n    rows: int\n    LIMIT = 3\n    def used(self): return self.rows\n"
        "    def dead(self): pass\n    def _private(self): pass\n    def __len__(self): return 0\n"
        "def f(m): return m.used()\n"
    )
    assert dead_public_names({"a": source}, set()) == ["a.M.LIMIT", "a.M.dead"]
    assert dead_public_names({"a": source, "b": "def g(m): return m.dead(), m.LIMIT\n"}, set()) == []
    # operator.dead and json.LIMIT are attributes of stdlib modules, not reads of M's members.
    stdlib = "import operator, os.path\nimport json as j\nprint(operator.dead, j.LIMIT, os.path.dead)\n"
    assert dead_public_names({"a": source, "b": stdlib}, set()) == ["a.M.LIMIT", "a.M.dead"]
    # M's __post_init__ reading self.LIMIT only checks it; M's other methods reading it use it.
    check = "    def __post_init__(self): check(self.LIMIT, self.dead)\n"
    post_init = source.replace("    def __len__", check + "    def __len__")
    assert dead_public_names({"a": post_init}, set()) == ["a.M.LIMIT", "a.M.dead"]
    assert dead_public_names({"a": post_init.replace("self.rows", "self.rows, self.LIMIT")}, set()) == ["a.M.dead"]


def test_every_public_name_is_read_or_an_entry_point():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    entry_points = {target.rsplit(".", 1)[1].replace(":", ".") for target in scripts.values()}
    sources = {path.stem: path.read_text() for path in sorted((ROOT / "src" / "coverhom").glob("*.py"))}
    # The benchmark's tracer reads the package too (it wraps IntMatrix.mul); its own names are not checked.
    tracer = names_read("spans", (ROOT / "perfbench" / "spans.py").read_text())
    assert dead_public_names(sources, entry_points | tracer) == []


def test_declared_python_is_the_oldest_python_ci_tests():
    tomllib = pytest.importorskip("tomllib")
    declared = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["requires-python"]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    versions = re.search(r"python-version: \[(.*)\]", workflow).group(1).split(",")
    oldest = min(tuple(int(part) for part in v.strip(' "').split(".")) for v in versions)
    assert declared == ">=%d.%d" % oldest
