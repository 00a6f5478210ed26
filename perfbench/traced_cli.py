"""Run one gpiverify CLI invocation with spans recorded at layer boundaries.

Usage: python3 perfbench/traced_cli.py SPANS_JSON ARG...

Behaves like ``python3 -m gpiverify.cli ARG...``: the report goes to stdout,
rendered the way ``cli.main`` renders it, and the exit code is the same.  The
public functions of each module are wrapped from here, so the program itself
is unchanged.  Spans (name, start, end, parent index) and counters are kept in
memory and written to SPANS_JSON when the invocation ends.  Pool workers
record nothing.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import sys
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.enabled = True

    def add(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn, after=None, flat: bool = False):
        """``fn`` recorded as a span named ``name``.  ``after(args, result)``
        updates counters once the span is closed.  With ``flat``, calls made
        while a span of the same name is open (recursion) are not recorded."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled or (flat and stack and spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if after is not None:
                after(args, result)
            return result

        return traced


def _replace(original, replacement) -> None:
    """Point every gpiverify module's reference to ``original`` at ``replacement``
    (modules import each other's functions by name)."""
    for name, module in list(sys.modules.items()):
        if name == "gpiverify" or name.startswith("gpiverify."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


# A boundary missing from the program (renamed or removed by a later change)
# is skipped, and its metrics read 0.


def _wrap_function(tracer: Tracer, module, attr: str, name: str, **kw) -> None:
    original = getattr(module, attr, None)
    if original is not None:
        _replace(original, tracer.wrap(name, original, **kw))


def _wrap_methods(tracer: Tracer, cls, attrs: tuple[str, ...], name: str, **kw) -> None:
    for attr in attrs:
        member = cls.__dict__.get(attr)
        if member is None:
            continue
        if isinstance(member, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, member.__func__, **kw)))
        else:
            setattr(cls, attr, tracer.wrap(name, member, **kw))


def install(tracer: Tracer):
    """Wrap the layer boundaries; returns the ``cli`` and ``report`` modules
    and the unwrapped ``hyp_poly`` (for its cache statistics)."""
    from gpiverify import bundled, cli, exactnum, gausshyp, inequality, moments
    from gpiverify import polyring, report, soscert

    # cli: the pool boundary, only when a pool is used
    pool_map = getattr(cli, "_pool_map", None)
    if pool_map is not None:
        pooled = tracer.wrap("cli.pool", pool_map)

        def pool_boundary(fn, items, jobs):
            if jobs <= 1 or not tracer.enabled:
                return pool_map(fn, items, jobs)
            items = list(items)
            results = pooled(fn, items, jobs)
            tracer.add("cli.pool_tasks", len(items))
            tracer.add("cli.pool_bytes", sum(len(pickle.dumps(x)) for x in items)
                       + sum(len(pickle.dumps(r)) for r in results))
            return results

        _replace(pool_map, pool_boundary)
    _wrap_function(tracer, cli, "run", "cli.run")
    _wrap_function(tracer, report, "jsonable", "report.render", flat=True)

    # polyring
    def eval_counts(args, result):
        poly = args[0]
        tracer.add("polyring.eval_terms", len(poly.terms))
        bits = max(
            (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.terms.values()),
            default=0,
        )
        if bits > tracer.counters.get("polyring.max_coeff_bits", 0):
            tracer.counters["polyring.max_coeff_bits"] = bits

    MultiPoly = polyring.MultiPoly
    _wrap_methods(tracer, MultiPoly, ("eval",), "polyring.eval", after=eval_counts)
    _wrap_methods(tracer, MultiPoly, ("__mul__",), "polyring.mul")
    _wrap_methods(tracer, MultiPoly, ("substitute", "substitute_rational"), "polyring.substitute")
    _wrap_methods(tracer, MultiPoly, ("from_json_dict",), "polyring.from_json")

    # exactnum
    _wrap_function(tracer, exactnum, "sqrt_enclosure", "exactnum.sqrt_enclosure")
    interval_ops = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
                    "__rmul__", "__truediv__", "__rtruediv__", "square", "sign")
    _wrap_methods(tracer, exactnum.RationalInterval, interval_ops, "exactnum.interval")

    # inequality: scan points, refinement yield, and the polynomial constructors
    def point_counts(args, result):
        tracer.add("inequality.scan_points", 1)
        tracer.add("inequality.indeterminate_points", int(result[0] == "indeterminate"))

    _wrap_function(tracer, inequality, "_scan_point", "inequality.scan_point", after=point_counts)
    refined_sign = getattr(inequality, "_refined_sign", None)

    def counted_refined_sign(evaluate, *args, **kwargs):
        def counted(w):
            tracer.add("inequality.enclosure_evals", 1)
            return evaluate(w)

        verdict, iv = refined_sign(counted, *args, **kwargs)
        tracer.add("inequality.decided", int(verdict != "indeterminate"))
        return verdict, iv

    if refined_sign is not None:
        _replace(refined_sign, counted_refined_sign)
    for attr in ("G_value", "S_poly", "g_poly", "h_poly"):
        _wrap_function(tracer, inequality, attr, f"inequality.{attr}")

    # gausshyp: the cached hypergeometric polynomials
    hyp_poly = getattr(gausshyp, "hyp_poly", None)
    _wrap_function(tracer, gausshyp, "hyp_poly", "gausshyp.hyp_poly")

    # moments
    _wrap_function(tracer, moments, "wick_moment", "moments.wick")
    _wrap_function(tracer, moments, "even_moment", "moments.closed_form")
    _wrap_function(tracer, moments, "odd_moment", "moments.closed_form")
    _wrap_function(tracer, moments, "mc_moment", "moments.mc")

    # soscert and the bundled data
    for attr in ("verify_bracket_positivity", "verify_sos", "load_certificate"):
        _wrap_function(tracer, soscert, attr, "soscert.verify")
    _wrap_function(tracer, soscert, "verify_nonneg_coeffs", "soscert.nonneg")
    for attr in ("load_h_expansion", "load_certificate_dict", "load_g_appendix"):
        _wrap_function(tracer, bundled, attr, "bundled.load")
    read = getattr(bundled, "_read", None)
    data_dir = Path(bundled.__file__).parent

    def counted_read(package_dir, name):
        tracer.add("bundled.bytes_read", (data_dir / package_dir / name).stat().st_size)
        return read(package_dir, name)

    if read is not None:
        _replace(read, counted_read)

    # pool workers are forked from this process; they record nothing
    os.register_at_fork(after_in_child=lambda: setattr(tracer, "enabled", False))
    return cli, report, hyp_poly


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    cli, report, hyp_poly = install(tracer)
    code = None

    def invoke():
        nonlocal code
        code, rep = cli.run(cli_argv)
        text = tracer.wrap("report.render", lambda: json.dumps(report.jsonable(rep), indent=2))()
        text += "\n"
        tracer.add("report.bytes", len(text.encode("utf-8")))
        sys.stdout.write(text)
        sys.stdout.flush()

    try:
        tracer.wrap("cli.run", invoke)()
    finally:
        if hasattr(hyp_poly, "cache_info"):
            info = hyp_poly.cache_info()
            tracer.add("gausshyp.hyp_poly_hits", info.hits)
            tracer.add("gausshyp.hyp_poly_misses", info.misses)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
