"""The package holds only what a command runs, and imports only what it needs.

A fixed list of cheap command lines, run in-process under ``sys.setprofile``,
must enter every function and method defined in ``src/gpiverify``.  Code that
only tests call belongs in ``tests/reference.py``, not in the package.  No
module imports a ``functools`` memo (``lru_cache`` or ``cache``): a command
builds each value once and passes it on.

Every absolute import in the package, lazy ones included, names the standard
library.  In a fresh ``python -S`` interpreter (no ``site``, so
nothing is preloaded) ``import gpiverify`` loads nothing else, and
``import gpiverify.cli`` loads no ``importlib.resources`` or ``pathlib``: the
bundled files are read by path, and the same data come back through
``importlib.resources``.
"""

import ast
import fnmatch
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import gpiverify
from gpiverify import bundled
from gpiverify.cli import main

PACKAGE_DIR = Path(gpiverify.__file__).resolve().parent

#: kept without a command that enters it
ALLOWED_UNENTERED: frozenset = frozenset()

#: special methods no command needs to enter: a readable repr, and the guard
#: against attribute writes
ALLOWED_UNENTERED_DUNDERS = {"polyring.MultiPoly.__repr__", "polyring.MultiPoly.__setattr__"}

ARGVS = [
    # the paper's commands, at small sizes
    "sos verify --all",
    "expand g --compare-appendix",
    "expand h --m2 1 --compare-bundled",
    "oracle compare --max-m 2",
    "oracle compare --real",
    "check gpi --m2 1 --m3 1 --a=-1 --x 1/2",
    "check mri --m2 2 --m3 2 --find-violation",
    "check mri --m2 2 --m3 3 --x 1/4",
    "check hfri --m2 1 --m3 5 --z 0.5",
    "check gpi-real --y2 13 --y3 13 --a=-1 --x 0.5",
    "check mri --y2 4 --y3 4.3 --find-violation",
    "scan hfri --m2 2 --m3 3 --grid 3",
    *(f"scan {p} --m2 8 --m3 8 --grid 3"
      for p in ("g-negative", "h-deriv", "h-deriv-reduced", "h-half", "h-seventh")),
    "scan h-deriv --m2 8 --m3 8 --grid 3 --jobs 2",
    # enough points for the root-freeness certificate, which 3 points are not
    "scan h-half --m2 8 --m3 8 --grid 21",
    # the other forms of the point checks, and the remaining commands
    "check mri --m2 2 --m3 3 --cov 1/4 --var2 2 --var3 3",
    "check mri --y2 13 --y3 13 --x 0.5",
    "expand s --m2 2 --m3 3",
    "params show --m2 2 --m3 3",
    # a usage error, and a point outside its predicate's domain
    "scan hfri --m2 2 --m3 3 --grid 1",
    "check hfri --m2 1 --m3 1 --z 2",
]


def _package_functions() -> dict:
    """{code object: "module.qualname"} for every function and method whose
    source is in the package, special methods (operators) included."""
    found = {}

    def add(obj):
        func = inspect.unwrap(obj)
        code = getattr(func, "__code__", None)
        if code is None or Path(code.co_filename).resolve().parent != PACKAGE_DIR:
            return
        found[code] = f"{func.__module__.split('.', 1)[1]}.{func.__qualname__}"

    for info in pkgutil.iter_modules(gpiverify.__path__):
        module = importlib.import_module(f"gpiverify.{info.name}")
        for obj in vars(module).values():
            if inspect.isclass(obj):
                for member in vars(obj).values():
                    if isinstance(member, (staticmethod, classmethod)):
                        add(member.__func__)
                    elif isinstance(member, property):
                        add(member.fget)
                    elif inspect.isfunction(member):
                        add(member)
            elif inspect.isfunction(obj):
                add(obj)
    return found


def test_every_package_function_is_entered_by_a_command(tmp_path, capsys):
    functions = _package_functions()
    assert len(functions) > 100  # the enumeration sees the whole package
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": 3}))
    argvs = [argv.split() + ["--out", os.devnull] for argv in ARGVS]
    argvs.append(["--config", str(config), "scan", "hfri", "--m2", "1", "--m3", "5",
                  "--out", os.devnull])
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    sys.setprofile(profile)
    try:
        for argv in argvs:
            codes.append(main(argv))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * (len(argvs) - 3) + [64, 64, 0]
    unentered = {name for code, name in functions.items() if code not in entered}
    assert unentered == ALLOWED_UNENTERED | ALLOWED_UNENTERED_DUNDERS


def test_package_keeps_no_memo_tables():
    # every command builds what it needs once and passes it on; a functools
    # cache would grow with every index pair that one process visits
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(sources) > 5
    memos = []
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "functools":
                names = [node.attr]
            else:
                continue
            memos += [(path.name, node.lineno, name) for name in names
                      if name in ("lru_cache", "cache")]
    assert memos == []


def test_package_imports_only_the_standard_library():
    # scipy, sympy and mpmath may be installed beside it, but are not dependencies
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(sources) > 5
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, node.lineno, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def _fresh(code: str, cwd=None) -> subprocess.CompletedProcess:
    """``code`` run by a fresh ``python -S``, with this checkout's ``src`` on
    PYTHONPATH (see conftest.py)."""
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=cwd, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_package_import_loads_only_the_package():
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import gpiverify\n"
            "print(sorted(set(sys.modules) - before))")
    assert _fresh(code).stdout.strip() == "['gpiverify']"


def test_cli_import_loads_no_resource_machinery():
    unwanted = ("importlib.resources", "pathlib", "zipfile", "tempfile")
    code = f"import sys, gpiverify.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    assert _fresh(code).stdout.strip() == "[]"


def test_bundled_reads_do_not_depend_on_the_working_directory(tmp_path):
    for argv in ("sos verify --all", "expand g --compare-appendix"):
        code = f"import sys, gpiverify.cli; sys.exit(gpiverify.cli.main({argv.split()!r}))"
        here, elsewhere = _fresh(code), _fresh(code, cwd=tmp_path)
        assert here.stdout == elsewhere.stdout
        assert '"verified"' in here.stdout


def test_bundled_read_matches_importlib_resources():
    root = resources.files("gpiverify")
    names = [(d, ref.name) for d in ("certs", "data") for ref in root.joinpath(d).iterdir()]
    assert len(names) == 15  # h1..h7 expansions and certificates, and g's
    for package_dir, name in names:
        text = root.joinpath(package_dir).joinpath(name).read_text(encoding="utf-8")
        assert bundled._read(package_dir, name) == json.loads(text), name


def test_package_data_globs_cover_every_bundled_read(monkeypatch):
    section = (PACKAGE_DIR.parent.parent / "pyproject.toml").read_text()
    section = section.split("[tool.setuptools.package-data]", 1)[1]
    globs = re.findall(r'"([^"]+)"', re.search(r"^gpiverify = \[(.*)\]", section, re.M)[1])
    opened = []
    read = bundled._read

    def recording_read(package_dir, name):
        opened.append(f"{package_dir}/{name}")
        return read(package_dir, name)

    monkeypatch.setattr(bundled, "_read", recording_read)
    for m2 in range(1, 8):
        bundled.load_h_expansion(m2)
        bundled.load_certificate(m2)
    bundled.load_g_appendix()
    assert len(opened) == 15
    assert [f for f in opened if not any(fnmatch.fnmatchcase(f, g) for g in globs)] == []
