"""Every module under src/picmod and tests references each name it
imports, the package references each module-level private name it
defines, another module or the benchmark references each public function
it defines, no package module reads a channel's `stages` view, only
`core` reads a log10, the package defines one exception class, a bare
`import picmod` reaches every submodule, neither importing
picmod nor running any subcommand loads scipy, click or numpy.ma, only
`stability` loads OpenSSL (`_hashlib`), and `import picmod` and the CLI
commands that run no experiment load neither numpy nor PyYAML."""

import ast
import builtins
import json
import os
import pathlib
import subprocess
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "picmod"

# __init__.py only binds the submodules as package attributes, on first access.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression references."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\nclass A:\n    x: float = math.pi\n"
    )
    assert unused_imports(source) == ["field", "os"]


@pytest.mark.parametrize(
    "path",
    MODULES + TEST_MODULES,
    ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_MODULES],
)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


def private_names(tree: ast.Module) -> set[str]:
    """Private (single-underscore) names bound at a module's top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def referenced_names(tree: ast.AST) -> set[str]:
    """Names a syntax tree reads: by name, as an attribute or by import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """`module:name` for each private module-level name that no module of
    `sources` (module name -> source) reads, by name, attribute or import."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    used = set().union(*(referenced_names(tree) for tree in trees.values()))
    return sorted(
        f"{mod}:{name}" for mod, tree in trees.items() for name in private_names(tree) - used
    )


def test_checker_finds_unused_private_names():
    sources = {
        "a": "_LIMIT = 3\n_seen: int = 0\ndef _helper():\n    return _LIMIT\n"
             "class _Box:\n    pass\n__all__ = []\n",
        "b": "from a import _helper\nimport a\n_x = a._Box\n_y = 1\n_x = _y\n",
    }
    assert unused_private_names(sources) == ["a:_seen", "b:_x"]


def test_package_reads_its_private_names():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unused_private_names(sources) == []


def unreferenced_functions(package: dict[str, str], others: list[str]) -> list[str]:
    """`module:name` for each public module-level function of `package`
    (module name -> source) that nothing references but its own body: no
    other top-level statement of `package` and no source in `others`."""
    trees = {mod: ast.parse(src) for mod, src in package.items()}
    refs = [(stmt, referenced_names(stmt)) for tree in trees.values() for stmt in tree.body]
    outside = set().union(*(referenced_names(ast.parse(src)) for src in others))
    return sorted(
        f"{mod}:{node.name}"
        for mod, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in outside
        and not any(node.name in names for stmt, names in refs if stmt is not node)
    )


def test_checker_finds_unreferenced_functions():
    package = {
        "a": "def used():\n    pass\ndef lonely():\n    lonely()\n"
             "def helper():\n    pass\nX = helper()\n"
             "def _private():\n    pass\n",
        "b": "from a import used\ndef benched():\n    pass\ndef dead():\n    pass\n",
    }
    assert unreferenced_functions(package, ["import b\nb.benched()\n"]) == ["a:lonely", "b:dead"]


def test_package_functions_have_callers():
    """Each public function is reached from elsewhere in the package or
    from the benchmark."""
    package = {p.stem: p.read_text() for p in MODULES}
    perfbench = [p.read_text() for p in (TESTS.parent / "perfbench").glob("*.py")]
    assert unreferenced_functions(package, perfbench) == []


def attribute_reads(source: str, attr: str) -> list[int]:
    """Line numbers at which `source` reads attribute `attr` of anything."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == attr
    )


def test_checker_finds_attribute_reads():
    source = (
        "class C:\n    @property\n    def stages(self):\n        return ()\n"
        "x = C().stages[0]\ny = getattr(C(), 'stages')\nz = C().stage\n"
    )
    assert attribute_reads(source, "stages") == [5]


def test_package_reads_no_stages_view():
    """A channel is `stage` and `n_stages`. `ModulatorChannel.stages`, the
    stage repeated n_stages times, is a view only the benchmark reads."""
    reads = {p.name: attribute_reads(p.read_text(), "stages") for p in MODULES}
    assert {name: lines for name, lines in reads.items() if lines} == {}


def log10_reads(source: str) -> list[tuple[str, int]]:
    """(spelling, line) of each read of a `log10`, as an attribute of
    anything (`np.log10`, `math.log10`) or as a bare name."""
    return sorted(
        (ast.unparse(node), node.lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "log10"
        or isinstance(node, ast.Name) and node.id == "log10"
    )


def test_checker_finds_log10_reads():
    source = (
        "import math\nimport numpy as np\nfrom math import log10\n"
        "a = np.log10(2.0)\nb = math.log10(3.0)\nc = log10\nd = np.emath.log10\nlog10e = 0\n"
    )
    assert log10_reads(source) == [
        ("log10", 6), ("math.log10", 5), ("np.emath.log10", 7), ("np.log10", 4),
    ]


def test_package_takes_every_db_from_core_db():
    """`core.db` is the one rule that turns a power ratio into dB, through
    scalar math.log10; numpy's array log10 can round the last bit apart
    from it. The only other log10 is `power_split_for_er`'s bracket."""
    reads = {p.name: [spelling for spelling, _ in log10_reads(p.read_text())] for p in MODULES}
    assert {name: found for name, found in reads.items() if found} == {
        "core.py": ["math.log10", "math.log10"],
    }


def exception_classes(sources: dict[str, str]) -> list[str]:
    """`module:name` for each class, at any depth, of `sources` (module name
    -> source) that derives from a built-in exception, directly or through
    another such class of `sources`; a base is matched by its name."""
    def base_name(base):
        return base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)

    classes = [
        (mod, node.name, {base_name(b) for b in node.bases})
        for mod, src in sources.items()
        for node in ast.walk(ast.parse(src))
        if isinstance(node, ast.ClassDef)
    ]
    known = {
        name for name, obj in vars(builtins).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    found = set()
    while True:
        more = {(mod, name) for mod, name, bases in classes if bases & known} - found
        if not more:
            return sorted(f"{mod}:{name}" for mod, name in found)
        found |= more
        known |= {name for _, name in more}


def test_checker_finds_exception_classes():
    sources = {
        "a": "class AError(ValueError):\n    pass\nclass Plain:\n    pass\n"
             "def f():\n    class Local(Exception):\n        pass\n",
        "b": "import a\nclass Sub(a.AError):\n    pass\nclass Deeper(Sub, Plain):\n    pass\n"
             "class Mixin(Plain):\n    pass\n",
    }
    assert exception_classes(sources) == ["a:AError", "a:Local", "b:Deeper", "b:Sub"]


def test_package_has_one_exception_class():
    """Every failure is a PicmodError told apart by its message; the CLI
    maps it to exit 2."""
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert exception_classes(sources) == ["errors:PicmodError"]


def run_fresh(code: str, *args: str) -> str:
    """Stdout of `code` run with `args` in a fresh interpreter, where no
    picmod submodule has been imported yet."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout


def test_import_picmod_binds_its_submodules():
    """After a bare `import picmod`, each submodule is an attribute of the
    package, and any other name raises AttributeError (`hasattr` lets
    nothing else through)."""
    missing = "import sys, picmod\nprint([m for m in sys.argv[1:] if not hasattr(picmod, m)])"
    names = [p.stem for p in MODULES]
    assert len(names) == 16
    found = run_fresh(missing, *names, "no_such_module", "core.db", "")
    assert ast.literal_eval(found) == ["no_such_module", "core.db", ""]


def test_submodule_import_error_propagates():
    """A submodule that fails to import a module of its own raises that
    ModuleNotFoundError, not AttributeError."""
    probe = (
        "import sys\nsys.modules['yaml'] = None  # `import yaml` now fails\nimport picmod\n"
        "try:\n    picmod.config\nexcept ModuleNotFoundError as exc:\n    print(exc.name)\n"
    )
    assert run_fresh(probe).split() == ["yaml"]


# Runs in a fresh interpreter; prints the numpy, PyYAML and picmod modules
# loaded after `import picmod` and after the CLI commands that run no
# experiment, and the exit code of each command.
LIGHT_PROBE = """
import contextlib, io, json, sys

def model_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "yaml", "picmod"))

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return picmod.cli.main(list(argv))
        except SystemExit as exc:
            return exc.code

import picmod
loaded = {"import": model_modules()}
import picmod.cli
commands = [["--version"], ["--help"], ["frobnicate"], ["report", sys.argv[1]]]
exit_codes = {" ".join(argv): run(*argv) for argv in commands}
loaded["commands"] = model_modules()
print(json.dumps({"loaded": loaded, "exit_codes": exit_codes}))
"""


def test_commands_without_an_experiment_load_no_model(tmp_path):
    """`import picmod`, `--version`, `--help`, an unknown subcommand and
    `report` load neither numpy nor PyYAML, and no picmod module but the
    package, `cli`, `errors` and `reports`: the CLI imports the experiments
    only when a subcommand runs one."""
    from picmod.reports import RunReport

    for kind, passed in [("sweep", True), ("beams", False)]:
        report = RunReport(kind, "0123abcd", 42)
        report.add("er_mean", 71.4, "dB", threshold=">= 70 dB", passed=passed)
        report.save(tmp_path / f"{kind}_report.json")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", LIGHT_PROBE, str(tmp_path)],
        capture_output=True, text=True, env=env, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["loaded"] == {
        "import": ["picmod"],
        "commands": ["picmod", "picmod.cli", "picmod.errors", "picmod.reports"],
    }
    assert result["exit_codes"] == {
        "--version": 0, "--help": 0, "frobnicate": 2, f"report {tmp_path}": 1,
    }


# Runs in a fresh interpreter; prints the scipy, click, numpy.ma and _hashlib
# modules loaded after the imports and after each command, and the exit code
# of each command.
UNWANTED_PROBE = """
import contextlib, io, json, sys
import picmod, picmod.cli

def unwanted_modules():
    return sorted(
        m for m in sys.modules
        if m.split(".")[0] in ("scipy", "click", "_hashlib")
        or m.split(".")[:2] == ["numpy", "ma"]
    )

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return picmod.cli.main(list(argv))
        except SystemExit as exc:
            return exc.code

config, out, commands = sys.argv[1:]
loaded = {"import": unwanted_modules()}
exit_codes = {}
for args in json.loads(commands):
    exit_codes[args] = run(*args.split(), "--config", config, "--out", out)
    loaded[args] = unwanted_modules()
exit_codes["report"] = run("report", out)
loaded["report"] = unwanted_modules()
print(json.dumps({"loaded": loaded, "exit_codes": exit_codes}))
"""

COMMANDS = [
    "beams",
    "crosstalk --scenario A",
    "crosstalk --scenario B",
    "crosstalk --scenario C",
    "calibrate",
    "sweep",
    "pulse --mode naive",
    "pulse --mode optimized",
    "stability",
]


def test_scipy_click_and_numpy_ma_off_the_import_path(tmp_path):
    """No step of a run loads scipy, click or numpy.ma, and none but
    `stability` loads OpenSSL's `_hashlib`: not `import picmod` or
    `picmod.cli`, and not any other subcommand. The root finder and the OU
    filter are picmod's own; scipy is only the tests' reference for them.
    The command line is parsed by the standard library's argparse. Medians
    come from `dynamics._median`, because np.median's NaN check imports
    numpy.ma, about 10 ms on first use in a fresh process. SHA-256 comes
    from CPython's builtin module (`rng.sha256`), because importing hashlib
    loads OpenSSL, about 4 MB.
    """
    config = SRC / "configs" / "pic_795nm.yaml"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", UNWANTED_PROBE, str(config), str(tmp_path), json.dumps(COMMANDS)],
        capture_output=True, text=True, env=env, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    # Only `stability` draws random streams, and numpy.random imports
    # `secrets`, whose hmac import loads _hashlib; the probe's module list
    # is cumulative, so `report`, run after it, lists it too.
    want = dict.fromkeys(["import", *COMMANDS, "report"], [])
    want["stability"] = want["report"] = ["_hashlib"]
    assert result["loaded"] == want
    assert result["exit_codes"] == dict.fromkeys([*COMMANDS, "report"], 0)
