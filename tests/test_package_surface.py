"""The package holds only what a command runs.

A fixed list of cheap command lines, run in-process under ``sys.setprofile``,
must enter every function and method defined in ``src/gpiverify``.  Code that
only tests call belongs in ``tests/reference.py``, not in the package.
Calls made in a forked pool worker are not seen; the one pooled scan enters
the pool's code in this process, which computes a share of the points itself.
"""

import importlib
import inspect
import json
import os
import pkgutil
import sys
from pathlib import Path

import gpiverify
from gpiverify.cli import main

PACKAGE_DIR = Path(gpiverify.__file__).resolve().parent

#: kept without a command that enters them: the exact root count of a
#: planned certifier needs the derivative, and the enclosure refinement
#: loops of the reference checks need the interval sign
ALLOWED_UNENTERED = {"polyring.MultiPoly.derivative", "exactnum.RationalInterval.sign"}

ARGVS = [
    # the paper's commands, at small sizes
    "sos verify --all",
    "expand g --compare-appendix",
    "expand h --m2 1 --compare-bundled",
    "oracle compare --max-m 2",
    "oracle compare --real --mc-n 1000",
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
    source is in the package, dunders excluded."""
    found = {}

    def add(obj):
        func = inspect.unwrap(obj)
        code = getattr(func, "__code__", None)
        if code is None or Path(code.co_filename).resolve().parent != PACKAGE_DIR:
            return
        if not (func.__name__.startswith("__") and func.__name__.endswith("__")):
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
            elif inspect.isfunction(obj) or hasattr(obj, "__wrapped__"):
                add(obj)
    return found


def _clear_caches():
    # a cached result from an earlier test would skip the function's body
    for info in pkgutil.iter_modules(gpiverify.__path__):
        module = importlib.import_module(f"gpiverify.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_every_package_function_is_entered_by_a_command(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # --jobs 2 starts a pool on any host
    functions = _package_functions()
    assert len(functions) > 100  # the enumeration sees the whole package
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": 3}))
    argvs = [argv.split() + ["--out", os.devnull] for argv in ARGVS]
    argvs.append(["--config", str(config), "scan", "hfri", "--m2", "1", "--m3", "5",
                  "--out", os.devnull])
    _clear_caches()
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
    assert unentered == ALLOWED_UNENTERED
