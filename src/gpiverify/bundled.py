"""The bundled read-only data files: their names, formats and index range.

certs/h{k}_expansion.json : the full bivariate polynomial h_k, k in H_INDICES
certs/h{k}_sos.json       : weighted-square certificate for h_k's bracket
data/g_appendix.json      : the reference expansion of g

A polynomial is stored in the JSON format of :meth:`MultiPoly.to_json_dict`
({"vars": [...], "terms": [...]}) with coefficients as exact rational strings.
A certificate file holds its ring, its target polynomial, a list of squares
({"lambda": weight, "poly": polynomial}), the scale of the target inside its
host and the host's name.  This module parses each file into a value;
:mod:`gpiverify.soscert` checks what the values claim.  A file that cannot be
read or parsed, or a certificate with a weight or scale that is not positive,
raises :class:`BundledDataError`: it is a defect of the installed package,
never of the caller's input.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import NamedTuple

from .exactnum import InputError, rational
from .polyring import MultiPoly

H_INDICES = range(1, 8)  # the m2 of the bundled h expansions and certificates


class BundledDataError(Exception):
    """A bundled file is missing or malformed; the message names the file."""


class Certificate(NamedTuple):
    """host = scale * target + rest, and target = sum(weight * square^2) over
    ``squares``, a tuple of (weight, square) pairs; every weight and the scale
    are positive.  ``name`` is the host's."""

    name: str
    scale: Fraction
    target: MultiPoly
    squares: tuple[tuple[Fraction, MultiPoly], ...]


def _read(package_dir: str, name: str) -> dict:
    # the package is installed as plain files (setuptools package-data)
    path = os.path.join(os.path.dirname(__file__), package_dir, name)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load(package_dir: str, name: str, parse):
    """parse(the JSON of one bundled file); a failure to read or parse it is a
    BundledDataError that names the file."""
    try:
        return parse(_read(package_dir, name))
    except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise BundledDataError(
            f"bundled file {package_dir}/{name}: {type(exc).__name__}: {exc}"
        ) from exc


def _h_file(m2: int, kind: str) -> str:
    if m2 not in H_INDICES:
        raise InputError(f"bundled h files exist for m2 in {H_INDICES[0]}..{H_INDICES[-1]}")
    return f"h{m2}_{kind}.json"


def load_h_expansion(m2: int) -> MultiPoly:
    """Bundled reference expansion of h_{m2}, m2 in H_INDICES."""
    return _load("certs", _h_file(m2, "expansion"), MultiPoly.from_json_dict)


def load_certificate(m2: int) -> Certificate:
    """Bundled certificate for h_{m2}'s bracket, m2 in H_INDICES."""

    def parse(raw: dict) -> Certificate:
        target = MultiPoly.from_json_dict(raw["target"])
        if tuple(raw["ring"]) != target.vars:
            raise ValueError(f"certificate ring {raw['ring']} does not match target {target.vars}")
        scale = rational(raw["scale"])
        squares = tuple(
            (rational(item["lambda"]), MultiPoly.from_json_dict(item["poly"]))
            for item in raw["squares"]
        )
        if scale <= 0:
            raise ValueError(f"certificate scale {scale} is not positive")
        for lam, _ in squares:
            if lam <= 0:
                raise ValueError(f"certificate weight {lam} is not positive")
        return Certificate(raw.get("host", f"h{m2}"), scale, target, squares)

    return _load("certs", _h_file(m2, "sos"), parse)


def load_g_appendix() -> MultiPoly:
    """Bundled reference expansion of g over (a, b, c)."""
    return _load("data", "g_appendix.json", MultiPoly.from_json_dict)
