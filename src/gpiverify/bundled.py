"""Access to the bundled read-only data files.

certs/h{k}_expansion.json : the full bivariate polynomial h_k, k = 1..7
certs/h{k}_sos.json       : weighted-square certificate for h_k's bracket
data/g_appendix.json      : the reference expansion of g

All files use the polynomial JSON format ({"vars": [...], "terms": [...]})
with coefficients as exact rational strings.  A file that cannot be read or
parsed raises :class:`BundledDataError`: it is a defect of the installed
package, never of the caller's input.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

from .exactnum import InputError
from .polyring import MultiPoly


class BundledDataError(Exception):
    """A bundled file is missing or malformed; the message names the file."""


@contextmanager
def reading(package_dir: str, name: str):
    """Re-raise a failure to read or parse one bundled file as BundledDataError."""
    try:
        yield
    except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise BundledDataError(
            f"bundled file {package_dir}/{name}: {type(exc).__name__}: {exc}"
        ) from exc


def _read(package_dir: str, name: str) -> dict:
    # the package is installed as plain files (setuptools package-data)
    path = os.path.join(os.path.dirname(__file__), package_dir, name)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_h_expansion(m2: int) -> MultiPoly:
    """Bundled reference expansion of h_{m2}, 1 <= m2 <= 7."""
    if not 1 <= m2 <= 7:
        raise InputError("bundled h expansions exist for m2 in 1..7")
    name = f"h{m2}_expansion.json"
    with reading("certs", name):
        return MultiPoly.from_json_dict(_read("certs", name))


def load_certificate_dict(m2: int) -> dict:
    """Raw certificate JSON for h_{m2}'s bracket, 1 <= m2 <= 7."""
    if not 1 <= m2 <= 7:
        raise InputError("bundled certificates exist for m2 in 1..7")
    name = f"h{m2}_sos.json"
    with reading("certs", name):
        return _read("certs", name)


def load_g_appendix() -> MultiPoly:
    """Bundled reference expansion of g over (a, b, c)."""
    with reading("data", "g_appendix.json"):
        return MultiPoly.from_json_dict(_read("data", "g_appendix.json"))
