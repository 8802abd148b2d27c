"""The import boundary: a bare ``import affposet`` loads no submodule,
``types`` and ``info`` load only ``cartan``, only the oracle's entry points
load it, nothing loads numpy, only interval and cell queries load the poset
module, and no command, ``verify`` included, loads ``dataclasses`` (with
``inspect`` behind it): no module imports it or ``NamedTuple``, as the
package's values all derive from ``cartan._Value``.

Each check runs in a fresh interpreter, so what it sees in ``sys.modules``
comes from the code under test alone, not from earlier tests.
"""

import ast
import enum
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import affposet

SRC = str(pathlib.Path(affposet.__file__).parents[1])
HEAVY = ("affposet.oracle",)
ON_DEMAND = ("dataclasses", "inspect", "affposet.poset")

PRELUDE = (
    "import io, json, sys\n"
    f"HEAVY = {HEAVY!r}\n"
    f"ON_DEMAND = {ON_DEMAND!r}\n"
    "def loaded(names=HEAVY):\n"
    "    assert 'numpy' not in sys.modules, 'numpy was loaded'\n"
    "    return [m for m in names if m in sys.modules]\n"
)


def fresh(script: str):
    """Run script in a new interpreter; return the JSON of its last line."""
    paths = [p for p in (SRC, os.environ.get("PYTHONPATH")) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


COLD_COMMANDS = [
    ["types"],
    ["info", "A3-1"],
    ["cocovers", "A3-1", "--labels", "0,2,1,1"],
    ["covers", "A3-1", "--labels", "0,2,1,1"],
    ["interval", "A3-1", "--top", "0,2,1,1", "--bottom", "2,1,1,0"],
    ["cell", "A4-1", "--labels", "1,1,1,1,0", "--mu", "0,0,2,1,1", "--mu2", "1,2,0,0,1"],
]


def test_classifier_commands_never_load_the_oracle():
    facts = fresh(
        "import affposet\n"
        "from affposet.cli import run\n"
        "facts = [['import affposet', 0, loaded()]]\n"
        f"for argv in {COLD_COMMANDS!r}:\n"
        "    code = run(argv, io.StringIO(), io.StringIO())\n"
        "    facts.append([argv[0], code, loaded()])\n"
        "print(json.dumps(facts))\n"
    )
    assert facts == [["import affposet", 0, []]] + [[argv[0], 0, []] for argv in COLD_COMMANDS]


def test_cold_commands_load_neither_dataclasses_nor_poset():
    facts = fresh(
        "import affposet\n"
        "from affposet.cli import run\n"
        "facts = [['import affposet', 0, loaded(ON_DEMAND)]]\n"
        f"for argv in {COLD_COMMANDS[:4]!r}:\n"
        "    code = run(argv, io.StringIO(), io.StringIO())\n"
        "    facts.append([argv[0], code, loaded(ON_DEMAND)])\n"
        "print(json.dumps(facts))\n"
    )
    assert facts == [["import affposet", 0, []]] + [[argv[0], 0, []] for argv in COLD_COMMANDS[:4]]


@pytest.mark.parametrize("argv", COLD_COMMANDS[4:], ids=lambda argv: argv[0])
def test_interval_and_cell_load_poset(argv):
    facts = fresh(
        "from affposet.cli import run\n"
        "before = loaded(ON_DEMAND)\n"
        f"code = run({argv!r}, io.StringIO(), io.StringIO())\n"
        "print(json.dumps([before, code, loaded(ON_DEMAND)]))\n"
    )
    assert facts == [[], 0, ["affposet.poset"]]


def test_verify_loads_the_oracle_but_not_numpy():
    facts = fresh(
        "from affposet.cli import run\n"
        "before = loaded()\n"
        "code = run(['verify', 'A1-1', '--samples', '2'], io.StringIO(), io.StringIO())\n"
        "print(json.dumps([before, code, loaded(), loaded(('dataclasses', 'inspect'))]))\n"
    )
    assert facts == [[], 0, list(HEAVY), []]


def test_library_verify_loads_the_oracle_but_not_numpy():
    facts = fresh(
        "import affposet\n"
        "report = affposet.verify_covering('A2-1', samples_per_level=2)\n"
        "print(json.dumps([report.tested, len(report.mismatches), loaded(),\n"
        "                  loaded(('dataclasses', 'inspect'))]))\n"
    )
    assert facts[1:] == [0, list(HEAVY), []] and facts[0] > 0


def test_no_module_imports_a_second_value_mechanism():
    # typing itself is not checked: site may load it before any test runs
    found = []
    for path in sorted(pathlib.Path(affposet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [(path.name, name) for name in names if name in ("dataclasses", "NamedTuple")]
    assert found == []
    # every class but errors, enums and the command line parser is a value
    from affposet.cartan import _Value
    from affposet.cli import _Parser

    classes = {
        cls.__qualname__: cls
        for path in pathlib.Path(affposet.__file__).parent.glob("*.py")
        if not path.stem.startswith("__")
        for cls in vars(importlib.import_module(f"affposet.{path.stem}")).values()
        if isinstance(cls, type) and cls.__module__ == f"affposet.{path.stem}"
        and not issubclass(cls, (BaseException, enum.Enum, _Parser))
    }
    assert [name for name, cls in classes.items() if not issubclass(cls, _Value)] == []
    assert {"_Step", "SearchWindow", "BruteBounds", "VerificationReport"} < set(classes)


def test_oracle_reads_the_classifier_only_inside_its_check():
    # the module docstring's rule: no module-level import of the classifier
    # or the poset, and the classifier named in ``_check_one`` alone
    path = pathlib.Path(affposet.__file__).parent / "oracle.py"
    tree = ast.parse(path.read_text())
    inside = {}
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            for name in names:
                leaf = name.rpartition(".")[2]
                if leaf in ("covering", "poset"):
                    inside.setdefault(leaf, set()).add(where)
    assert inside == {"covering": {"_check_one"}}


def test_oracle_names_resolve_through_the_package():
    facts = fresh(
        "import affposet\n"
        "first = affposet.verify_covering\n"
        "import affposet.oracle as oracle\n"
        "same = first is oracle.verify_covering\n"
        "cached = 'verify_covering' in vars(affposet)\n"
        "oracle.verify_covering = patched = object()\n"
        "follows = affposet.verify_covering is patched\n"
        "print(json.dumps([same, cached, follows, loaded()]))\n"
    )
    # the package keeps no copy, so a patch of the oracle module (as the
    # benchmark's tracer makes and undoes) is what the package serves
    assert facts == [True, False, True, list(HEAVY)]


def test_poset_names_resolve_through_the_package():
    facts = fresh(
        "import affposet\n"
        "first = affposet.interval\n"
        "import affposet.poset as poset\n"
        "same = first is poset.interval\n"
        "cached = 'interval' in vars(affposet)\n"
        "poset.interval = patched = object()\n"
        "follows = affposet.interval is patched\n"
        "print(json.dumps([same, cached, follows, loaded(ON_DEMAND)]))\n"
    )
    assert facts == [True, False, True, ["affposet.poset"]]


def test_star_import_binds_every_public_name():
    missing = fresh(
        "import affposet\n"
        "ns = {}\n"
        "exec('from affposet import *', ns)\n"
        "print(json.dumps([n for n in affposet.__all__ if n not in ns]))\n"
    )
    assert missing == []


def test_unknown_attribute_raises_attribute_error():
    facts = fresh(
        "import affposet\n"
        "try:\n"
        "    affposet.no_such_name\n"
        "    raised = None\n"
        "except AttributeError as err:\n"
        "    raised = str(err)\n"
        "print(json.dumps([raised, hasattr(affposet, 'oracle_names'), loaded()]))\n"
    )
    assert facts == ["module 'affposet' has no attribute 'no_such_name'", False, []]


def test_every_public_name_is_listed_once():
    # the package root's _LAZY is the one list: each name is defined by the
    # module it maps to and exported by it, and no module but cli spells out
    # its own __all__
    for name, home in affposet._LAZY.items():
        module = importlib.import_module(f"affposet.{home}")
        assert getattr(module, name).__module__ == module.__name__, name
        assert name in module.__all__, name
    spelled = {
        path.stem
        for path in pathlib.Path(affposet.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        and isinstance(node.value, ast.List)
        and all(isinstance(e, ast.Constant) for e in node.value.elts)
    }
    assert spelled == {"cli"}


def test_dir_lists_the_lazy_names():
    assert set(affposet.__all__) <= set(dir(affposet))


def test_bare_import_loads_no_submodule():
    facts = fresh(
        "import affposet\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('affposet'))))\n"
    )
    assert facts == ["affposet"]


BASE = ["affposet", "affposet.cartan", "affposet.cli"]
CLASSIFIER = BASE + ["affposet.covering", "affposet.roots", "affposet.weights"]


@pytest.mark.parametrize(
    "argv, modules",
    [(argv, BASE if argv[0] in ("types", "info") else CLASSIFIER) for argv in COLD_COMMANDS[:4]],
    ids=[argv[0] for argv in COLD_COMMANDS[:4]],
)
def test_entry_point_loads_only_what_the_command_runs(argv, modules):
    # runpy runs the package's __main__ as ``python -m affposet`` does
    facts = fresh(
        "import contextlib, runpy\n"
        f"sys.argv = ['affposet', *{argv!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('affposet', run_name='__main__')\n"
        "    except SystemExit as exit:\n"
        "        code = exit.code\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('affposet'))]))\n"
    )
    assert facts == [0, modules]


def test_sources_parse_at_the_declared_python_floor():
    # feature_version makes the parser refuse syntax newer than the floor,
    # such as 3.11's except*, whatever interpreter runs the test
    root = pathlib.Path(affposet.__file__).parents[2]
    declared = re.search(r'requires-python = ">=3\.(\d+)"', (root / "pyproject.toml").read_text())
    floor = (3, int(declared.group(1)))
    assert floor == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=floor)
    paths = sorted(pathlib.Path(affposet.__file__).parent.rglob("*.py"))
    assert len(paths) > 5
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)


def test_only_weights_moves_a_shift_across_a_root():
    # a move's shift, c0 / mark0 over the base's, is computed in weights
    # alone: no other module names the kernel, and mark0 is read elsewhere
    # only by the oracle's independent check of a gap
    named, read = [], []
    for path in sorted(pathlib.Path(affposet.__file__).parent.glob("*.py")):
        if path.name == "weights.py":
            continue
        for top in ast.parse(path.read_text()).body:
            where = (path.stem, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                else:
                    names = []
                named += [where for name in names if name == "_plus_delta"]
                if (
                    isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "marks"
                    and isinstance(node.slice, ast.Constant)
                    and node.slice.value == 0
                ):
                    read.append(where)
    assert named == []
    assert read == [("oracle", "brute_bounds")]


def test_every_private_name_is_read_and_every_import_is_used():
    # a helper that a refactor leaves behind shows up here: each private
    # module-level function, class or constant is read in the module that
    # defines it or imported from there by another, and no module imports a
    # name it never reads
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(pathlib.Path(affposet.__file__).parent.glob("*.py"))
    }
    reads, bound, taken = {}, {}, set()
    for stem, tree in trees.items():
        reads[stem], bound[stem] = set(), []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                reads[stem].add(node.id)
            elif isinstance(node, ast.Attribute):
                reads[stem].add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound[stem] += [alias.asname or alias.name for alias in node.names]
                if node.level:  # ``from . import`` reads the package's __init__
                    taken.update((node.module or "__init__", alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                bound[stem] += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
    unread = []
    for stem, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names = [top.name]
            elif isinstance(top, ast.Assign):
                names = [target.id for target in top.targets if isinstance(target, ast.Name)]
            elif isinstance(top, ast.AnnAssign) and isinstance(top.target, ast.Name):
                names = [top.target.id]
            else:
                continue
            unread += [
                (stem, name)
                for name in names
                if name.startswith("_") and not name.startswith("__")
                and name not in reads[stem] and (stem, name) not in taken
            ]
    assert unread == []
    assert [(stem, name) for stem in trees for name in bound[stem] if name not in reads[stem]] == []
    assert {"poset", "covering", "weights", "cartan"} <= {home for home, _ in taken}
