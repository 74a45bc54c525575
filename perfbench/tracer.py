"""Run one fiberdt CLI request with spans around its layers.

    python3 tracer.py SPANS_FILE fiberdt-arguments...

The layers are fiberdt's modules.  Their public functions are wrapped here,
from outside the package, and every call records a span: name, start, end
and the index of the enclosing span.  Cache file reads and writes get spans
of their own.  Counters (factors, terms, eliminations, cells, ...) are
recorded at the same boundaries.  Spans and counters stay in memory and are
written to SPANS_FILE as one JSON document when the request ends; the
benchmark's run.py adds the request id.

Without this wrapper the same request is ``python3 -m fiberdt ARGS``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

spans: list[list] = []  # [name, start, end, parent index or -1]
counts: Counter = Counter()
_stack: list[int] = []


def traced(name, fn, count=None):
    """Wrap ``fn`` so that each call records a span; ``count(args, result)``
    may add to the counters afterwards."""

    def wrapper(*args, **kwargs):
        record = [name, time.perf_counter(), None, _stack[-1] if _stack else -1]
        _stack.append(len(spans))
        spans.append(record)
        try:
            result = fn(*args, **kwargs)
        finally:
            _stack.pop()
            record[2] = time.perf_counter()
        if count is not None:
            count(args, result)
        return result

    return wrapper


def _count_product(args, result):
    counts["polyseries.terms"] += sum(len(c.terms) for c in result.coefficients)


def _materialize_factors(product):
    # The factor list is a generator; count the factors the product keeps
    # (k <= q_max, e != 0) inside the product's span.
    def run(factors, q_max, **kwargs):
        factors = list(factors)
        counts["polyseries.factors"] += sum(1 for f in factors if f[2] <= q_max and f[3])
        return product(factors, q_max, **kwargs)

    return run


def _count_mul(args, result):
    counts["polyseries.mul_calls"] += 1


def _count_rref(args, result):
    rows, n_cols = args
    counts["linalg.eliminations"] += 1
    counts["linalg.cells"] += len(rows) * n_cols


def _count_hom(args, result):
    counts["localhom.solves"] += 1
    counts["localhom.unknowns"] += result.n_unknowns


def _count_rows(args, result):
    counts["localhom.rows"] += len(result)


def _wrap(owner, attr, name, count=None):
    """Replace ``owner.attr`` by a traced version; absent names are skipped,
    so a program that drops a function still runs under the tracer."""
    fn = getattr(owner, attr, None)
    if fn is None:
        return None
    wrapped = traced(name, fn, count)
    setattr(owner, attr, wrapped)
    return wrapped


def install(cache_dir: str | None) -> None:
    from fiberdt import cli, formulas, linalg, localhom, polyseries, serialize

    # formulas imports series_product by name, cli imports hom_dimension by
    # name: both bindings get the same wrapper.
    product = traced("polyseries.product", _materialize_factors(polyseries.series_product), _count_product)
    polyseries.series_product = formulas.series_product = product
    _wrap(polyseries.TruncatedSeries, "__mul__", "polyseries.mul", _count_mul)

    _wrap(formulas, "hilbert_hodge_series", "formulas.hilbert")
    for attr in ("nested_hodge_series", "ideal_sheaf_hodge_series"):
        _wrap(formulas, attr, "formulas.derived")
    for attr in ("hilbert_euler_direct", "nested_euler_direct", "ideal_sheaf_euler_direct"):
        _wrap(formulas, attr, "formulas.euler_direct")

    for attr in ("series_to_document", "euler_to_document"):
        _wrap(serialize, attr, "serialize.document")
    for attr in ("series_to_csv", "euler_to_csv"):
        _wrap(serialize, attr, "serialize.csv")
    for attr in ("attach_checksum", "checksum_ok"):
        _wrap(serialize, attr, "serialize.checksum")
    _wrap(serialize, "series_from_document", "serialize.parse")

    # The CLI renders documents with json.dumps and parses files with
    # json.loads; route both through spans without touching the json module.
    class _Json:
        JSONDecodeError = json.JSONDecodeError
        dumps = staticmethod(traced("serialize.dump", json.dumps))
        loads = staticmethod(traced("serialize.parse", json.loads))

    cli.json = _Json
    # The s/t symmetry check and the Euler cross-check; the direct integer
    # routes inside it have spans of their own.
    _wrap(cli, "_crosscheck_series", "polyseries.symmetry")

    _wrap(linalg, "rref", "linalg.rref", _count_rref)
    _wrap(linalg, "rank", "linalg.rank")
    _wrap(linalg, "nullspace", "linalg.nullspace")
    _wrap(localhom, "_constraint_rows", "localhom.rows", _count_rows)
    _wrap(localhom, "verify_hom_solution", "localhom.verify")
    hom = _wrap(localhom, "hom_dimension", "localhom.hom", _count_hom)
    if hom is not None:
        cli.hom_dimension = hom

    if cache_dir is not None:
        cache = Path(cache_dir).resolve()
        read_text, write_text = Path.read_text, Path.write_text
        read_span = traced("cache.read", read_text)
        write_span = traced("cache.write", write_text)

        def read(path, *args, **kwargs):
            fn = read_span if path.resolve().parent == cache else read_text
            return fn(path, *args, **kwargs)

        def write(path, *args, **kwargs):
            fn = write_span if path.resolve().parent == cache else write_text
            return fn(path, *args, **kwargs)

        Path.read_text = read
        Path.write_text = write


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    cache_dir = argv[argv.index("--cache") + 1] if "--cache" in argv else None
    install(cache_dir)
    from fiberdt import cli

    try:
        return cli.main(argv)
    finally:
        with open(spans_file, "w") as fh:
            json.dump({"spans": spans, "counts": counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
