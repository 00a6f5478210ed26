"""Subprocesses started by the tests import gpiverify from this checkout, as
the test process does through pytest's ``pythonpath`` setting."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
