"""The import boundary: only the oracle's entry points load it, nothing
loads numpy, only interval and cell queries load the poset module, and
nothing loads ``dataclasses`` (with ``inspect`` behind it) outside the oracle.

Each check runs in a fresh interpreter, so what it sees in ``sys.modules``
comes from the code under test alone, not from earlier tests.
"""

import json
import os
import pathlib
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
        "print(json.dumps([before, code, loaded()]))\n"
    )
    assert facts == [[], 0, list(HEAVY)]


def test_library_verify_loads_the_oracle_but_not_numpy():
    facts = fresh(
        "import affposet\n"
        "report = affposet.verify_covering('A2-1', samples_per_level=2)\n"
        "print(json.dumps([report.tested, len(report.mismatches), loaded()]))\n"
    )
    assert facts[1:] == [0, list(HEAVY)] and facts[0] > 0


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
    from affposet import cartan, covering, oracle, poset, roots, weights

    names = affposet.__all__
    assert len(names) == len(set(names))
    modules = (cartan, roots, weights, covering, oracle, poset)
    assert set(names) == {n for m in modules for n in m.__all__} | {"__version__"}
    assert affposet._LAZY == {
        **dict.fromkeys(oracle.__all__, "oracle"),
        **dict.fromkeys(poset.__all__, "poset"),
    }
