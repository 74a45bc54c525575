"""Command-line driver.

Subcommands compute, cross-check, display and persist the generating series,
the Donaldson-Thomas tables, the enumeration oracles and the local Hom
reports.  The series, dt and localhom commands re-verify their output
against an independent route before emitting it; oracle does so only with
--check.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 failed internal
cross-check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Each handler imports the package modules it runs, so that a request loads
# only those; functions are looked up on their modules at call time.

__all__ = ["main", "build_parser", "Q_MAX_CAP", "D_MAX_CAP", "HODGE_CAP", "INPUT_FILE_CAP"]

# Caps bound the worst cases, in two regimes for Hodge series on a 2-core
# machine with Python 3.11: registry surfaces take at most about 3 s (the
# abelian surface at full truncation order, `series hilb --surface abelian
# --qmax 50`, about 1.5 s), and a diamond with every entry at HODGE_CAP takes
# about 30-35 s at q_max = 50 (`hilb` at q_max = 30: about 2.2 s).  An --euler
# request builds no Hodge series and takes about 0.1 s at every cap.
# D_MAX_CAP bounds the w3 truncation degree of a Hom computation.
Q_MAX_CAP = 50
D_MAX_CAP = 12
# Bounds every h^{i,j} of a series surface and the fiber genus (h^{0,1} of the
# fiber).  Each coefficient of the Hilbert product at q^m is then at most the
# number of H-coloured partitions of m, H = sum of the h^{i,j} <= 9 * 10^6,
# which is below (m (H + 1))^m, about 10^433 at m = 50.  The e-polynomial of
# the 3-fold (coefficients summing to at most (2 + 2 g) H) and the factor
# q/(1 - s t q) add under 20 digits: far below the 4,300 digits Python
# converts to text.
HODGE_CAP = 10**6
# Bytes read from an --ideal-file or a --surface diamond file before it is
# parsed.  2,000 exponent triples, or a 3 x 3 diamond at HODGE_CAP, take a few
# tens of kilobytes; a larger file exits 2 without being read whole.
INPUT_FILE_CAP = 1 << 20

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CROSSCHECK = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fiberdt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    series = sub.add_parser(
        "series",
        help="generating series of Hilbert schemes, nested Hilbert schemes or "
        "ideal-sheaf moduli",
    )
    series.add_argument(
        "kind",
        choices=("hilb", "incidence", "im1"),
        help="hilb: Hilbert schemes of points of the surface; incidence: nested "
        "pairs of point subschemes; im1: ideal-sheaf moduli of the fibered "
        "3-fold with one extra point",
    )
    series.add_argument(
        "--surface",
        required=True,
        help="registry surface name or path to a diamond JSON file",
    )
    series.add_argument("--genus", type=int, default=None, help="fiber genus (im1 only)")
    series.add_argument("--qmax", dest="q_max", type=int, required=True)
    series.add_argument(
        "--euler", action="store_true", help="emit the s = t = 1 specialization"
    )
    series.add_argument("--format", choices=("text", "json", "csv"), default="text")
    series.add_argument("--out", default=None, help="write to this file instead of stdout")
    series.add_argument("--cache", default=None, help="directory for the series cache")
    series.set_defaults(func=_cmd_series)

    dt = sub.add_parser("dt", help="table of Donaldson-Thomas numbers")
    dt.add_argument("--surface", required=True, help="base surface, k3 or abelian")
    dt.add_argument("--mmax", dest="m_max", type=int, required=True)
    dt.add_argument("--format", choices=("text", "json"), default="text")
    dt.add_argument("--out", default=None)
    dt.set_defaults(func=_cmd_dt)

    oracle = sub.add_parser("oracle", help="brute-force enumeration counters")
    oracle.add_argument("kind", choices=("colored", "nested"))
    oracle.add_argument("--chi", type=int, required=True, help="number of colors")
    oracle.add_argument("--m", type=int, required=True, help="total partition size")
    oracle.add_argument(
        "--check",
        action="store_true",
        help="compare against the matching series coefficient",
    )
    oracle.set_defaults(func=_cmd_oracle)

    localhom = sub.add_parser(
        "localhom", help="truncated Hom dimensions of monomial-ideal local models"
    )
    localhom.add_argument("--dmax", dest="d_max", type=int, required=True)
    localhom.add_argument(
        "--ideal-file",
        default=None,
        help="JSON list of exponent triples; without it, the built-in "
        "tangent-jump verification runs for every truncation degree up to dmax",
    )
    localhom.add_argument("--format", choices=("text", "json"), default="text")
    localhom.add_argument("--out", default=None)
    localhom.set_defaults(func=_cmd_localhom)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
        return EXIT_OK
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RuntimeError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text)
    elif sys.stdout is None:
        # Python sets sys.stdout to None when file descriptor 1 is closed.
        raise OSError("standard output is closed")
    else:
        sys.stdout.write(text)


def _load_json_file(name: str):
    """Parse a user-supplied JSON file of at most INPUT_FILE_CAP bytes.

    The read itself is bounded, so a file that is larger than its size on
    disk claims (a device such as /dev/zero, or one still growing) is refused
    like any other.
    """
    with open(name, "rb") as fh:
        data = fh.read(INPUT_FILE_CAP + 1)
    if len(data) > INPUT_FILE_CAP:
        raise ValueError(f"{name}: larger than the input file cap of {INPUT_FILE_CAP} bytes")
    try:
        return json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # json.loads recurses once per nesting level, so a deeply nested
        # file raises RecursionError.  The bytes are decoded as UTF-8 here,
        # not by json.loads, which would also accept UTF-16 and UTF-32.
        raise ValueError(f"{name}: not valid JSON ({exc})") from None


def _resolve_surface(token: str):
    """(name, diamond) of a registry name, or (None, diamond) of a path to a
    diamond JSON file."""
    from .geometry import HodgeDiamond, registry_lookup

    try:
        return token, registry_lookup(token)
    except ValueError as name_error:
        if not Path(token).exists():
            raise ValueError(f"{name_error}; and no file named {token!r} exists") from None
        return None, HodgeDiamond.from_json(_load_json_file(token))


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def _cmd_series(args) -> None:
    import hashlib

    from . import formulas, serialize
    from .geometry import FibrationSpec

    kind = args.kind
    if args.q_max < 0:
        raise ValueError("qmax must be nonnegative")
    if args.q_max > Q_MAX_CAP:
        raise ValueError(f"qmax {args.q_max} exceeds the cap {Q_MAX_CAP}")
    name, surface = _resolve_surface(args.surface)
    if surface.dim != 2:
        raise ValueError(f"series need a surface diamond, got dimension {surface.dim}")
    if kind == "im1":
        if args.genus is None:
            raise UsageError("im1 series require --genus")
        geometry = FibrationSpec(surface, args.genus)
    else:
        if args.genus is not None:
            raise UsageError("--genus applies only to im1 series")
        geometry = surface
    if max(max(row) for row in surface.grid) > HODGE_CAP or (args.genus or 0) > HODGE_CAP:
        raise ValueError(f"Hodge numbers and --genus must not exceed the cap {HODGE_CAP}")

    # The head of the request's series documents, and with q_max its cache key.
    request = {
        "kind": kind, "surface_doc": surface.to_json(), "surface_name": name, "genus": args.genus
    }
    if args.euler:  # builds no Hodge series, so no cache entry is read or written
        values = formulas.euler_sequence(kind, geometry, args.q_max)
        if args.format == "json":
            text = serialize.euler_to_json(values, **request)
        elif args.format == "csv":
            text = serialize.euler_to_csv(values, kind=kind)
        else:
            text = serialize.series_to_text(values, kind=kind, surface_name=name, euler=True)
        _emit(text, args.out)
        return
    path = series = hodge_json = None
    if args.cache:
        key = hashlib.sha256(serialize.canonical_json({**request, "q_max": args.q_max}).encode())
        path = Path(args.cache) / f"{kind}-{key.hexdigest()[:16]}.json"
        try:
            hodge_json = path.read_text()
            series = serialize.series_from_document(hodge_json, **request, q_max=args.q_max)
        except (FileNotFoundError, ValueError):
            # A missing entry, or one that is not the writer's bytes for this
            # request, is recomputed.
            hodge_json = None
        if args.format != "json":
            hodge_json = None  # not held through the render of another format
    write_entry = path is not None and series is None
    if series is None:
        series = formulas.hodge_series(kind, geometry, args.q_max)
    _crosscheck_series(kind, geometry, series)

    # The Hodge JSON is rendered at most once: a hit that emits it emits the
    # entry, which the reader has checked to be the request's JSON output.
    if write_entry:
        hodge_json = serialize.series_to_json(series, **request)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Write beside the entry and rename over it, so that a concurrent run
        # sharing the cache sees either no entry or a whole one.
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(hodge_json)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    if args.format == "json":
        text = hodge_json or serialize.series_to_json(series, **request)
    elif args.format == "csv":
        text = serialize.series_to_csv(series, kind=kind)
    else:
        text = serialize.series_to_text(
            series.coefficients, kind=kind, surface_name=name, euler=False
        )
    _emit(text, args.out)


def _crosscheck_series(kind, geometry, series) -> None:
    from . import formulas

    formulas.verify_series(kind, geometry, series)


# ---------------------------------------------------------------------------
# dt
# ---------------------------------------------------------------------------


def _cmd_dt(args) -> None:
    from . import formulas
    from .geometry import FibrationSpec

    name = args.surface
    if args.m_max < 0:
        raise ValueError("mmax must be nonnegative")
    if args.m_max + 1 > Q_MAX_CAP:
        raise ValueError(f"mmax {args.m_max} needs q_max {args.m_max + 1} over the cap {Q_MAX_CAP}")
    fibration = FibrationSpec.from_surface_name(name, 1)
    rows = [
        {"m": m, "dimension": formulas.moduli_dimension(m), "euler": euler, "dt": value}
        for m, (euler, value) in enumerate(formulas.dt_table(fibration, args.m_max))
    ]
    if args.format == "json":
        doc = {"surface": name, "fiber_genus": 1, "m_max": args.m_max, "rows": rows}
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        lines = [f"# dt surface={name} fiber_genus=1", f"{'m':>4} {'dim':>5} {'euler':>7} {'dt':>5}"]
        for row in rows:
            lines.append(f"{row['m']:>4} {row['dimension']:>5} {row['euler']:>7} {row['dt']:>5}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _cmd_oracle(args) -> None:
    from . import oracles

    chi, m = args.chi, args.m
    if not 1 <= chi <= oracles.RECOMMENDED_COLOR_CAP:
        raise ValueError(
            f"cap exceeded: chi must lie in 1..{oracles.RECOMMENDED_COLOR_CAP}"
        )
    if not 0 <= m <= oracles.RECOMMENDED_SIZE_CAP:
        raise ValueError(f"cap exceeded: m must lie in 0..{oracles.RECOMMENDED_SIZE_CAP}")
    if args.kind == "colored":
        count = oracles.colored_partitions_count(chi, m)
    else:
        count = oracles.nested_colored_count(chi, m)
    lines = [str(count)]
    ok = True
    if args.check:
        from . import formulas
        from .geometry import surface_with_euler_number

        # The colored count is e(S^[m]), the hilb coefficient of q^m; the nested
        # count is e of the (m, m+1) nested space, the incidence one of q^(m+1).
        kind, q = ("hilb", m) if args.kind == "colored" else ("incidence", m + 1)
        coefficient = formulas.euler_sequence(kind, surface_with_euler_number(chi), q)[q]
        ok = coefficient == count
        lines += [f"series coefficient: {coefficient}", "check: pass" if ok else "check: FAIL"]
    _emit("\n".join(lines) + "\n", None)
    if not ok:
        raise RuntimeError(f"enumeration gives {count} but the series coefficient is {coefficient}")


# ---------------------------------------------------------------------------
# localhom
# ---------------------------------------------------------------------------


def _cmd_localhom(args) -> None:
    from . import localhom

    if args.d_max < 0:
        raise ValueError("dmax must be nonnegative")
    if args.d_max > D_MAX_CAP:
        raise ValueError(f"dmax {args.d_max} exceeds the cap {D_MAX_CAP}")
    if args.ideal_file:
        ideal = localhom.MonomialIdeal.from_json(_load_json_file(args.ideal_file))
        solution = localhom.hom_dimension(ideal, args.d_max)
        report = {
            "ideal": ideal.to_json(),
            "d_max": args.d_max,
            "dimension": solution.dimension,
            "rank": solution.rank,
            "n_unknowns": solution.n_unknowns,
            "quotient_basis_size": len(solution.basis),
        }
        if args.format == "json":
            text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        else:
            lines = [f"# localhom ideal={ideal} d_max={args.d_max}"]
            for key in ("dimension", "rank", "n_unknowns", "quotient_basis_size"):
                lines.append(f"{key}: {report[key]}")
            text = "\n".join(lines) + "\n"
        _emit(text, args.out)
        return
    if args.d_max < 1:
        raise UsageError("the built-in verification needs --dmax of at least 1")
    report = localhom.tangent_jump_report(args.d_max)
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        lines = [
            "# localhom built-in tangent-jump verification",
            f"{'D':>3} {'line':>6} {'embedded':>9} {'difference':>11} {'ok':>4}",
        ]
        for row in report["rows"]:
            lines.append(
                f"{row['d_max']:>3} {row['line_dimension']:>6} "
                f"{row['embedded_dimension']:>9} {row['local_difference']:>11} "
                f"{'yes' if row['ok'] else 'NO':>4}"
            )
        lines.append(
            f"local difference {report['local_difference']} + series family offset "
            f"{report['series_family_offset']} = global jump {report['global_jump']}"
        )
        lines.append("passed" if report["passed"] else "FAILED")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    if not report["passed"]:
        raise RuntimeError("tangent-jump pattern violated; see report")


if __name__ == "__main__":
    sys.exit(main())
