import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fiberdt import cli, formulas, serialize
from fiberdt.geometry import FibrationSpec, registry_lookup, surface_names
from fiberdt.polyseries import BivariatePolynomial, TruncatedSeries
from test_serialize import reference_checksum, with_checksum, writer_layout


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- series -------------------------------------------------------------------


def test_series_hilb_euler_text(capsys):
    code, out, err = run(capsys, "series", "hilb", "--surface", "p2", "--qmax", "3", "--euler")
    assert code == 0, err
    assert [line.split(": ")[1] for line in out.strip().splitlines()[1:]] == ["1", "3", "9", "22"]


def test_series_im1_abelian_vanishing_euler(capsys):
    code, out, err = run(
        capsys, "series", "im1", "--surface", "abelian", "--genus", "1",
        "--qmax", "5", "--euler",
    )
    assert code == 0, err
    values = [line.split(": ")[1] for line in out.strip().splitlines()[1:]]
    assert values == ["0"] * 6


def test_series_text_labels_moduli_index(capsys):
    code, out, _ = run(capsys, "series", "incidence", "--surface", "p2", "--qmax", "2")
    assert code == 0
    assert "q^2 (m=1):" in out
    assert "q^0:" in out


def test_series_unknown_surface(capsys):
    code, out, err = run(capsys, "series", "hilb", "--surface", "bad", "--qmax", "3")
    assert code == 2
    assert "unknown geometry" in err


@pytest.mark.parametrize(
    "argv",
    (
        ("series", "hilb", "--surface", "point", "--qmax", "3"),
        ("series", "im1", "--surface", "curve(1)", "--genus", "1", "--qmax", "3"),
        ("dt", "--surface", "point", "--mmax", "2"),
        ("dt", "--surface", "curve(1)", "--mmax", "2"),
    ),
)
def test_point_and_curve_are_not_registry_names(capsys, argv):
    name = argv[argv.index("--surface") + 1]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"validation error: unknown geometry {name!r}")
    assert "known names: abelian, k3, p1xp1, p2" in err


def test_series_qmax_over_cap(capsys):
    code, _, err = run(capsys, "series", "hilb", "--surface", "p2", "--qmax", "51")
    assert code == 2
    assert "cap" in err


def test_series_bad_kind_is_usage_error(capsys):
    code, _, err = run(capsys, "series", "nope", "--surface", "p2", "--qmax", "3")
    assert code == 1


def test_series_im1_requires_genus(capsys):
    code, _, err = run(capsys, "series", "im1", "--surface", "k3", "--qmax", "3")
    assert code == 1
    assert "genus" in err


def test_series_genus_rejected_for_hilb(capsys):
    code, _, err = run(capsys, "series", "hilb", "--surface", "k3", "--genus", "1", "--qmax", "3")
    assert code == 1


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys, )[0] == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_series_json_byte_stable(capsys):
    a = run(capsys, "series", "hilb", "--surface", "k3", "--qmax", "4", "--format", "json")
    b = run(capsys, "series", "hilb", "--surface", "k3", "--qmax", "4", "--format", "json")
    assert a[0] == b[0] == 0
    assert a[1] == b[1]


def test_series_json_round_trip(capsys):
    code, out, _ = run(capsys, "series", "incidence", "--surface", "p1xp1", "--qmax", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["checksum"] == reference_checksum(doc)
    parsed = serialize.series_from_document(
        out, kind="incidence", surface_doc=registry_lookup("p1xp1").to_json(),
        surface_name="p1xp1", genus=None, q_max=4,
    )
    expected = formulas.hodge_series("incidence", registry_lookup("p1xp1"), 4)
    assert parsed == expected


def test_series_csv_round_trip(capsys):
    code, out, _ = run(capsys, "series", "hilb", "--surface", "k3", "--qmax", "3", "--format", "csv")
    assert code == 0
    series = formulas.hodge_series("hilb", registry_lookup("k3"), 3)
    assert out == serialize.series_to_csv(series, kind="hilb")


def test_series_euler_csv_round_trip(capsys):
    code, out, _ = run(
        capsys, "series", "im1", "--surface", "p2", "--genus", "0",
        "--qmax", "4", "--euler", "--format", "csv",
    )
    assert code == 0
    fib = FibrationSpec.from_surface_name("p2", 0)
    assert out == serialize.euler_to_csv(formulas.euler_sequence("im1", fib, 4), kind="im1")


def test_series_euler_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "series", "hilb", "--surface", "abelian", "--qmax", "5",
        "--euler", "--format", "json",
    )
    assert code == 0
    abelian = registry_lookup("abelian")
    values = formulas.euler_sequence("hilb", abelian, 5)
    assert values == (1, 0, 0, 0, 0, 0)
    assert out == serialize.euler_to_json(
        values, kind="hilb", surface_doc=abelian.to_json(), surface_name="abelian"
    )
    doc = json.loads(out)
    assert doc["checksum"] == reference_checksum(doc)


EULER_GEOMETRIES = [
    (kind, name, None) for kind in ("hilb", "incidence") for name in surface_names()
] + [("im1", name, genus) for name in surface_names() for genus in (0, 1, 2)]


def hodge_route_euler_output(kind, name, genus, q_max, fmt):
    """The --euler output as rendered from the Hodge series at s = t = 1."""
    surface = registry_lookup(name)
    geometry = surface if genus is None else FibrationSpec(surface, genus)
    values = formulas.hodge_series(kind, geometry, q_max).euler_sequence()
    if fmt == "json":
        return serialize.euler_to_json(
            values, kind=kind, surface_doc=surface.to_json(), surface_name=name, genus=genus
        )
    if fmt == "csv":
        return serialize.euler_to_csv(values, kind=kind)
    return serialize.series_to_text(values, kind=kind, surface_name=name, euler=True)


@pytest.mark.parametrize("kind, name, genus", EULER_GEOMETRIES)
def test_series_euler_output_is_the_hodge_series_at_one(capsys, kind, name, genus):
    genus_argv = () if genus is None else ("--genus", str(genus))
    for q_max in (0, 1, 7):
        for fmt in ("json", "csv", "text"):
            code, out, err = run(
                capsys, "series", kind, "--surface", name, *genus_argv,
                "--qmax", str(q_max), "--euler", "--format", fmt,
            )
            assert code == 0, err
            assert out == hodge_route_euler_output(kind, name, genus, q_max, fmt), (q_max, fmt)


def cache_state(cache):
    return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in cache.iterdir()}


def test_series_euler_leaves_the_cache_untouched(tmp_path, capsys):
    cache = tmp_path / "cache"
    head = ("series", "im1", "--surface", "k3", "--genus", "1", "--qmax", "6", "--format")
    expected = {fmt: run(capsys, *head, fmt, "--euler")[1] for fmt in ("json", "csv", "text")}

    def euler_requests():
        for fmt, out in expected.items():
            assert run(capsys, *head, fmt, "--euler", "--cache", str(cache)) == (0, out, "")

    euler_requests()
    assert not cache.exists()  # no entry, and not even the directory
    assert run(capsys, *head, "json", "--cache", str(cache))[0] == 0
    [entry] = cache.iterdir()
    for content in (None, "{not json"):  # a valid entry, then a corrupt one
        if content is not None:
            entry.write_text(content)
        before = cache_state(cache)
        euler_requests()
        assert cache_state(cache) == before


# sha256 of `series hilb --surface abelian --qmax 50 --euler --format json` as
# rendered from the Hodge series at s = t = 1.
ABELIAN_Q50_EULER_SHA256 = "5f7ec995a40b45845d7ff00c22b708fc900a966854947aed0d95b5ef41460c5a"


def test_euler_requests_build_no_hodge_series(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a Hodge series was built")

    monkeypatch.setattr(formulas, "hodge_series", refuse)
    target = tmp_path / "euler.json"
    argv = ("series", "hilb", "--surface", "abelian", "--qmax", "50", "--euler", "--format", "json")
    assert cli.main([*argv, "--out", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == ABELIAN_Q50_EULER_SHA256
    for argv in (
        ("series", "incidence", "--surface", "k3", "--qmax", "20", "--euler"),
        ("series", "im1", "--surface", "p2", "--genus", "2", "--qmax", "20", "--euler"),
        ("dt", "--surface", "k3", "--mmax", "10"),
        ("oracle", "colored", "--chi", "3", "--m", "4", "--check"),
        ("oracle", "nested", "--chi", "3", "--m", "4", "--check"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
    assert "check: pass" in out


def test_series_surface_file(tmp_path, capsys):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(registry_lookup("k3").to_json()))
    code, out, _ = run(capsys, "series", "hilb", "--surface", str(path), "--qmax", "2", "--euler")
    assert code == 0
    assert out.strip().splitlines()[1:] == ["q^0: 1", "q^1: 24", "q^2: 324"]


def test_series_invalid_surface_file_names_invariant(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "h": [[1, 2, 0], [0, 1, 0], [0, 2, 1]]}))
    code, _, err = run(capsys, "series", "hilb", "--surface", str(path), "--qmax", "2")
    assert code == 2
    assert "conjugation symmetry" in err


def test_series_surface_file_rejects_booleans(tmp_path, capsys):
    path = tmp_path / "p2.json"
    path.write_text('{"dim": 2, "h": [[true, 0, 0], [0, 1, 0], [0, 0, true]]}')
    code, _, err = run(capsys, "series", "hilb", "--surface", str(path), "--qmax", "2")
    assert code == 2
    assert "nonnegative integers" in err


def test_series_rejects_oversized_hodge_numbers_quickly(tmp_path, capsys):
    # Without the cap this runs for minutes and then fails to print a
    # coefficient longer than 4,300 digits.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": 2, "h": [[1, 0, 0], [0, 10**4200, 0], [0, 0, 1]]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "series", "hilb", "--surface", str(path), "--qmax", "50")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "cap" in err
    code, _, err = run(
        capsys, "series", "im1", "--surface", "k3", "--genus", str(cli.HODGE_CAP + 1), "--qmax", "50"
    )
    assert code == 2
    assert "cap" in err


def test_series_out_file(tmp_path, capsys):
    target = tmp_path / "series.csv"
    code, out, _ = run(
        capsys, "series", "hilb", "--surface", "p2", "--qmax", "2",
        "--format", "csv", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    series = formulas.hodge_series("hilb", registry_lookup("p2"), 2)
    assert target.read_text() == serialize.series_to_csv(series, kind="hilb")


GOLDEN_Q50 = json.loads((Path(__file__).parent / "data" / "golden_q50.json").read_text())

# `series hilb --surface abelian --qmax 50` is the worst registry-surface
# command at the cap: about 1.5 s from the shell on a 2-core machine with
# Python 3.11 (about 20 s before the packed series engine).
ABELIAN_CAP_BUDGET_S = 6.0


def test_golden_q50_digests(tmp_path):
    # sha256 of the JSON output at the cap for hilb, incidence and im1 (genus
    # 1) over k3 and abelian, plus hilb over p2, as recorded with the sparse
    # dictionary engine that the packed engine replaced.
    for entry in GOLDEN_Q50:
        target = tmp_path / "series.json"
        start = time.perf_counter()
        assert cli.main([*entry["argv"], "--out", str(target)]) == 0
        elapsed = time.perf_counter() - start
        assert hashlib.sha256(target.read_bytes()).hexdigest() == entry["sha256"], entry["argv"]
        if entry["argv"][1:4] == ["hilb", "--surface", "abelian"]:
            assert elapsed < ABELIAN_CAP_BUDGET_S


# A diamond with every entry at HODGE_CAP has the widest slots of any surface
# input (928 bits at q = 50, against 80 for the abelian surface).  It is the
# second regime of the caps: about 28 s at q = 50, and about 2.2 s at q = 30
# from the shell on a 2-core machine with Python 3.11.
HODGE_CAP_Q30_BUDGET_S = 8.0


def test_hodge_cap_diamond_within_budget(tmp_path):
    cap = cli.HODGE_CAP
    diamond = tmp_path / "cap.json"
    diamond.write_text(json.dumps({"dim": 2, "h": [[1, cap, cap], [cap, cap, cap], [cap, cap, 1]]}))
    argv = ["series", "hilb", "--surface", str(diamond), "--qmax", "30", "--format", "json"]
    start = time.perf_counter()
    assert cli.main([*argv, "--out", str(tmp_path / "series.json")]) == 0
    assert time.perf_counter() - start < HODGE_CAP_Q30_BUDGET_S


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_digests_replay(tmp_path, monkeypatch):
    # Every request the benchmark can make must reproduce the sha256 it
    # recorded; perfbench/ is read, never written.
    if not (PERFBENCH / "workloads.py").is_file():
        pytest.skip("perfbench/ is not part of this tree")
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    digests = json.loads((PERFBENCH / "digests.json").read_text())
    requests = {r.key: r for w in workloads.WORKLOADS for r in workloads.all_requests(w)}
    assert set(digests) == set(requests)
    workloads.write_fixtures(requests.values(), tmp_path)
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "out"
    for key, digest in digests.items():
        assert cli.main([*requests[key].argv, "--out", str(target)]) == 0, key
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest, key


# --- cache ----------------------------------------------------------------------


def test_series_cache_hit_reproduces_output(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = (
        "series", "im1", "--surface", "k3", "--genus", "1", "--qmax", "4",
        "--format", "json", "--cache", str(cache),
    )
    first = run(capsys, *argv)
    files = list(cache.glob("im1-*.json"))
    assert first[0] == 0 and len(files) == 1
    second = run(capsys, *argv)
    assert second[0] == 0
    assert first[1] == second[1]


def test_series_cache_corrupt_entry_recomputed(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = (
        "series", "hilb", "--surface", "p2", "--qmax", "3",
        "--format", "json", "--cache", str(cache),
    )
    first = run(capsys, *argv)
    assert first[0] == 0
    entry = next(cache.glob("hilb-*.json"))
    entry.write_text("{not json")
    second = run(capsys, *argv)
    assert second[0] == 0
    assert first[1] == second[1]


def test_series_cache_failed_rename_leaves_no_entry(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    argv = (
        "series", "hilb", "--surface", "p2", "--qmax", "3",
        "--format", "json", "--cache", str(cache),
    )

    def failing_replace(src, dst):
        raise OSError("rename failed")

    with monkeypatch.context() as patch:
        patch.setattr("os.replace", failing_replace)
        code, _, err = run(capsys, *argv)
    assert code == 2
    assert "rename failed" in err
    assert list(cache.iterdir()) == []  # neither an entry nor a temp file
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert [p.suffix for p in cache.iterdir()] == [".json"]


def test_series_cache_tampered_payload_fails_crosscheck(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = (
        "series", "hilb", "--surface", "p2", "--qmax", "3",
        "--format", "json", "--cache", str(cache),
    )
    assert run(capsys, *argv)[0] == 0
    entry = next(cache.glob("hilb-*.json"))
    doc = json.loads(entry.read_text())
    doc["coefficients"][1]["terms"][0]["c"] = "99"
    with_checksum(doc)  # checksum valid, payload wrong
    entry.write_text(writer_layout(doc))
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "direct integer series" in err


def test_series_cache_entry_off_its_mirror_fails_crosscheck(tmp_path, capsys):
    # The writer's own bytes for a series edited off the Poincare mirror: the
    # entry reads back, keeps the s/t symmetry and the Euler numbers, and
    # still fails the check of every cache read.
    cache = tmp_path / "cache"
    argv = (
        "series", "hilb", "--surface", "k3", "--qmax", "3",
        "--format", "json", "--cache", str(cache),
    )
    assert run(capsys, *argv)[0] == 0
    entry = next(cache.glob("hilb-*.json"))
    coeffs = list(formulas.hodge_series("hilb", registry_lookup("k3"), 3).coefficients)
    terms = dict(coeffs[3].terms)
    terms[1, 1] += 1
    terms[2, 2] -= 1
    coeffs[3] = BivariatePolynomial(terms)
    edited = serialize.series_to_json(
        TruncatedSeries(coeffs), kind="hilb", surface_doc=registry_lookup("k3").to_json(),
        surface_name="k3",
    )
    entry.write_text(edited)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "Poincare duality" in err


def test_series_cache_miss_entry_equals_json_output(tmp_path, capsys):
    cache = tmp_path / "cache"
    code, out, _ = run(
        capsys, "series", "incidence", "--surface", "abelian", "--qmax", "5",
        "--format", "json", "--cache", str(cache),
    )
    assert code == 0
    [entry] = cache.iterdir()
    assert entry.read_text() == out


def test_series_cache_hit_renders_current_surface_name(tmp_path, capsys):
    # The key holds the surface_name: a registry name and a diamond file of
    # the same surface write an entry each, and each hit emits its own.
    cache = tmp_path / "cache"
    path = tmp_path / "p2.json"
    path.write_text(json.dumps(registry_lookup("p2").to_json()))
    argv = ("series", "hilb", "--qmax", "4", "--format", "json")
    by_name = run(capsys, *argv, "--surface", "p2")[1]
    by_file = run(capsys, *argv, "--surface", str(path))[1]
    assert json.loads(by_name)["surface_name"] == "p2"
    assert json.loads(by_file)["surface_name"] is None
    argv += ("--cache", str(cache))
    assert run(capsys, *argv, "--surface", str(path)) == (0, by_file, "")
    [file_entry] = cache.iterdir()
    assert run(capsys, *argv, "--surface", "p2") == (0, by_name, "")
    [name_entry] = set(cache.iterdir()) - {file_entry}
    assert (file_entry.read_text(), name_entry.read_text()) == (by_file, by_name)
    assert run(capsys, *argv, "--surface", "p2") == (0, by_name, "")
    assert run(capsys, *argv, "--surface", str(path)) == (0, by_file, "")
    assert (file_entry.read_text(), name_entry.read_text()) == (by_file, by_name)


def test_series_json_cache_hit_renders_its_document_once(tmp_path, capsys, monkeypatch):
    # The reader renders an entry to check its bytes, and a JSON hit emits the
    # entry as read: one render per hit.  --surface k3 and a k3 diamond file
    # write an entry each, and neither request changes the other's entry.
    cache = tmp_path / "cache"
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(registry_lookup("k3").to_json()))
    argv = ("series", "im1", "--genus", "1", "--qmax", "6", "--format", "json")
    by_name = run(capsys, *argv, "--surface", "k3")[1]
    by_file = run(capsys, *argv, "--surface", str(path))[1]
    assert run(capsys, *argv, "--surface", "k3", "--cache", str(cache))[0] == 0
    [name_entry] = cache.iterdir()
    assert run(capsys, *argv, "--surface", str(path), "--cache", str(cache))[0] == 0
    [file_entry] = set(cache.iterdir()) - {name_entry}
    written = {p: p.read_bytes() for p in (name_entry, file_entry)}
    assert written == {name_entry: by_name.encode(), file_entry: by_file.encode()}
    render = serialize.series_to_json
    names = []

    def counted(*args, **keywords):
        names.append(keywords["surface_name"])
        return render(*args, **keywords)

    monkeypatch.setattr(serialize, "series_to_json", counted)
    assert run(capsys, *argv, "--surface", "k3", "--cache", str(cache)) == (0, by_name, "")
    assert names == ["k3"]
    names.clear()
    assert run(capsys, *argv, "--surface", str(path), "--cache", str(cache)) == (0, by_file, "")
    assert names == [None]
    assert {p: p.read_bytes() for p in cache.iterdir()} == written


def test_series_cache_entry_of_another_surface_name_is_a_miss(tmp_path, capsys):
    # An entry a k3 diamond file wrote (surface_name null), copied to the file
    # name of the --surface k3 key, is not that request's output: it is
    # rewritten, and the request emits the uncached bytes.
    cache = tmp_path / "cache"
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(registry_lookup("k3").to_json()))
    argv = ("series", "hilb", "--qmax", "5", "--format", "json")
    expected = run(capsys, *argv, "--surface", "k3")[1]
    assert run(capsys, *argv, "--surface", "k3", "--cache", str(cache))[0] == 0
    [name_entry] = cache.iterdir()
    name_entry.unlink()
    assert run(capsys, *argv, "--surface", str(path), "--cache", str(cache))[0] == 0
    [file_entry] = cache.iterdir()
    null_named = file_entry.read_text()
    assert json.loads(null_named)["surface_name"] is None
    name_entry.write_text(null_named)
    assert run(capsys, *argv, "--surface", "k3", "--cache", str(cache)) == (0, expected, "")
    assert name_entry.read_text() == expected
    assert file_entry.read_text() == null_named


def test_series_cache_shared_by_concurrent_runs(tmp_path, capsys):
    # More processes than cores write and read one entry at once, round after
    # round: every run emits the uncached bytes, and the directory ends with
    # one whole entry and no temp file.
    argv = ("series", "hilb", "--surface", "k3", "--qmax", "12", "--format", "json")
    expected = run(capsys, *argv)[1]
    cache = tmp_path / "cache"
    paths = (str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    for _ in range(3):
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "fiberdt", *argv, "--cache", str(cache)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(6)
        ]
        try:
            results = [(*proc.communicate(timeout=60), proc.returncode) for proc in procs]
        finally:
            for proc in procs:
                if proc.returncode is None:  # only after a timeout
                    proc.kill()
                    proc.communicate()
        assert results == [(expected, "", 0)] * len(procs)
    assert [(p.suffix, p.read_text()) for p in cache.iterdir()] == [(".json", expected)]


def test_series_cache_not_written_when_crosscheck_fails(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    argv = ("series", "hilb", "--surface", "p2", "--qmax", "3", "--cache", str(cache))

    def asymmetric(kind, geometry, q_max):
        return TruncatedSeries([BivariatePolynomial({(1, 0): 1})] * (q_max + 1))

    with monkeypatch.context() as patch:
        patch.setattr(formulas, "hodge_series", asymmetric)
        code, _, err = run(capsys, *argv)
    assert code == 3
    assert "symmetric" in err
    assert list(cache.iterdir()) == []
    assert run(capsys, *argv)[0] == 0
    assert [p.suffix for p in cache.iterdir()] == [".json"]


@pytest.mark.parametrize("content", ("[]", "null", "7", '"x"'))
def test_series_cache_non_object_entry_recomputed(tmp_path, capsys, content):
    cache = tmp_path / "cache"
    argv = ("series", "hilb", "--surface", "p2", "--qmax", "3", "--format", "json")
    expected = run(capsys, *argv)[1]
    assert run(capsys, *argv, "--cache", str(cache))[0] == 0
    [entry] = cache.iterdir()
    entry.write_text(content)
    code, out, err = run(capsys, *argv, "--cache", str(cache))
    assert code == 0, err
    assert out == expected
    assert entry.read_text() == expected
    doc = json.loads(entry.read_text())
    assert doc["checksum"] == reference_checksum(doc)


def _retotal(doc):
    # A changed payload under a checksum that matches it again, in the
    # writer's layout, so that only the edit makes the entry a miss.
    return writer_layout(with_checksum(doc))


def _edit_term(edit):
    def tamper(text):
        doc = json.loads(text)
        edit(doc["coefficients"][1]["terms"][1])  # the s t term of e(P2), c = "1"
        return _retotal(doc)

    return tamper


def _replace_entry(text):
    doc = json.loads(text)
    doc["coefficients"][2] = [doc["coefficients"][2]]
    return _retotal(doc)


def _edit_head(edit):
    def tamper(text):
        doc = json.loads(text)
        edit(doc)
        return _retotal(doc)

    return tamper


def _tamper_coefficient(text):
    doc = json.loads(text)
    doc["coefficients"][1]["terms"][0]["c"] = "2"
    return writer_layout(doc)  # stale checksum


@pytest.mark.parametrize(
    "tamper",
    (
        pytest.param(_tamper_coefficient, id="tampered-coefficient"),
        pytest.param(_edit_term(lambda t: t.update(x=1)), id="extra-term-key"),
        pytest.param(_edit_term(lambda t: t.update(i=True)), id="bool-exponent"),
        pytest.param(_edit_term(lambda t: t.update(c="\u0661")), id="non-ascii-c"),
        pytest.param(_edit_term(lambda t: t.update(c="01")), id="non-canonical-c"),
        pytest.param(lambda text: text[: len(text) // 2], id="truncated"),
        pytest.param(lambda text: "[" * 100_000, id="deeply-nested"),
        pytest.param(_replace_entry, id="non-object-coefficient-entry"),
        pytest.param(_edit_head(lambda d: d.update(genus=1)), id="other-request"),
        pytest.param(_edit_head(lambda d: d.update(euler=0)), id="euler-zero"),
        pytest.param(lambda text: json.dumps(json.loads(text)), id="compact-layout"),
    ),
)
def test_series_cache_entry_the_writer_could_not_produce_is_rewritten(tmp_path, capsys, tamper):
    # Each of these is a miss: the request exits 0 with the uncached bytes and
    # replaces the entry by the writer's.
    cache = tmp_path / "cache"
    argv = ("series", "hilb", "--surface", "p2", "--qmax", "3", "--format", "json")
    expected = run(capsys, *argv)[1]
    assert run(capsys, *argv, "--cache", str(cache))[0] == 0
    [entry] = cache.iterdir()
    entry.write_text(tamper(entry.read_text()))
    assert entry.read_text() != expected
    code, out, err = run(capsys, *argv, "--cache", str(cache))
    assert code == 0, err
    assert out == expected
    assert entry.read_text() == expected


# --- dt -------------------------------------------------------------------------


def test_dt_table_abelian(capsys):
    code, out, _ = run(capsys, "dt", "--surface", "abelian", "--mmax", "3")
    assert code == 0
    rows = out.strip().splitlines()[2:]
    assert len(rows) == 4
    assert all(row.split()[-1] == "0" for row in rows)


def test_dt_table_json_k3(capsys):
    code, out, _ = run(capsys, "dt", "--surface", "k3", "--mmax", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [row["dt"] for row in doc["rows"]] == [0, 0, 0]
    assert [row["dimension"] for row in doc["rows"]] == [3, 5, 7]


def test_dt_rejects_p2(capsys):
    code, _, err = run(capsys, "dt", "--surface", "p2", "--mmax", "3")
    assert code == 2
    assert "K = 0" in err


# --- oracle ---------------------------------------------------------------------


def test_oracle_colored(capsys):
    code, out, _ = run(capsys, "oracle", "colored", "--chi", "3", "--m", "3")
    assert code == 0
    assert out.strip() == "22"


def test_oracle_nested_zero_size(capsys):
    code, out, _ = run(capsys, "oracle", "nested", "--chi", "3", "--m", "0")
    assert code == 0
    assert out.strip() == "3"


def test_oracle_check_passes(capsys):
    for kind in ("colored", "nested"):
        code, out, err = run(capsys, "oracle", kind, "--chi", "2", "--m", "4", "--check")
        assert code == 0, err
        assert "check: pass" in out


def test_oracle_cap_exceeded(capsys):
    code, _, err = run(capsys, "oracle", "colored", "--chi", "9", "--m", "3")
    assert code == 2
    assert "cap exceeded" in err
    code, _, err = run(capsys, "oracle", "nested", "--chi", "2", "--m", "40")
    assert code == 2


# --- localhom -------------------------------------------------------------------


def test_localhom_builtin(capsys):
    code, out, _ = run(capsys, "localhom", "--dmax", "3")
    assert code == 0
    assert "passed" in out
    assert "global jump 10" in out


def test_localhom_builtin_json(capsys):
    code, out, _ = run(capsys, "localhom", "--dmax", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [row["d_max"] for row in doc["rows"]] == [1, 2]


def test_localhom_custom_file(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    code, out, _ = run(
        capsys, "localhom", "--dmax", "0", "--ideal-file", str(path), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["dimension"] == 3


def test_localhom_dmax_over_cap(capsys):
    code, _, err = run(capsys, "localhom", "--dmax", "99")
    assert code == 2
    assert "cap" in err


def test_localhom_malformed_ideal_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("[[1, 0, 0], [1,")
    code, _, err = run(capsys, "localhom", "--dmax", "2", "--ideal-file", str(path))
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize(
    "command, content, message",
    (
        pytest.param("localhom", "[" * 100_000, "not valid JSON", id="ideal-deeply-nested"),
        pytest.param("series", "[" * 100_000, "not valid JSON", id="surface-deeply-nested"),
        pytest.param("localhom", "[1, 2]", "exponent triples", id="ideal-integers"),
        pytest.param("localhom", "[null]", "exponent triples", id="ideal-null"),
        pytest.param("localhom", "[[1, 0, 0], 5]", "exponent triples", id="ideal-integer-after-triple"),
    ),
)
def test_hostile_input_files_are_validation_errors(tmp_path, capsys, command, content, message):
    # Under the byte cap, each of these once escaped as a RecursionError
    # (exit 3) or a TypeError (a traceback, exit 1).
    path = tmp_path / "input.json"
    path.write_text(content)
    if command == "localhom":
        argv = ("localhom", "--dmax", "2", "--ideal-file", str(path))
    else:
        argv = ("series", "hilb", "--surface", str(path), "--qmax", "2")
    code, _, err = run(capsys, *argv)
    assert code == 2, err
    assert message in err


@pytest.mark.parametrize("flag", ("--ideal-file", "--surface"))
@pytest.mark.parametrize(
    "content",
    (
        pytest.param(b"\xff[[1, 0, 0], [0, 1, 0]]", id="invalid-utf8"),
        pytest.param("[[1, 0, 0], [0, 1, 0]]".encode("utf-16"), id="utf16"),
    ),
)
def test_input_files_that_are_not_utf8_name_the_file(tmp_path, capsys, flag, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    if flag == "--ideal-file":
        argv = ("localhom", "--dmax", "2", "--ideal-file", str(path))
    else:
        argv = ("series", "hilb", "--surface", str(path), "--qmax", "2")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"{path}: not valid JSON (" in err


def test_localhom_rejects_oversized_ideals_quickly(tmp_path, capsys):
    # Each of these would enumerate or allocate for minutes without the size cap.
    for name, gens, d_max in (
        ("huge-box", [[1000000, 0, 0], [0, 1000000, 0]], "0"),
        ("deep-guard", [[1, 0, 0], [0, 1, 0], [0, 0, 30000000]], "0"),
        ("wide-box", [[12, 0, 0], [0, 12, 0]], "12"),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(gens))
        code, _, err = run(capsys, "localhom", "--dmax", d_max, "--ideal-file", str(path))
        assert code == 2, name
        assert "cap" in err, name


def _padded(path, doc, size):
    """Write doc as JSON followed by spaces, size bytes in all."""
    text = json.dumps(doc)
    path.write_text(text + " " * (size - len(text)))
    assert path.stat().st_size == size


def test_input_files_over_the_byte_cap_are_refused_unparsed(tmp_path, capsys):
    ideal = tmp_path / "ideal.json"
    _padded(ideal, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], cli.INPUT_FILE_CAP + 1)
    code, _, err = run(capsys, "localhom", "--dmax", "0", "--ideal-file", str(ideal))
    assert code == 2
    assert "input file cap" in err
    diamond = tmp_path / "diamond.json"
    _padded(diamond, registry_lookup("k3").to_json(), cli.INPUT_FILE_CAP + 1)
    code, _, err = run(capsys, "series", "hilb", "--surface", str(diamond), "--qmax", "2")
    assert code == 2
    assert "input file cap" in err


def test_input_files_at_the_byte_cap_are_read(tmp_path, capsys):
    ideal = tmp_path / "ideal.json"
    _padded(ideal, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], cli.INPUT_FILE_CAP)
    code, out, err = run(capsys, "localhom", "--dmax", "0", "--ideal-file", str(ideal))
    assert code == 0, err
    assert "dimension: 3" in out
    diamond = tmp_path / "diamond.json"
    _padded(diamond, registry_lookup("k3").to_json(), cli.INPUT_FILE_CAP)
    argv = ("series", "hilb", "--qmax", "2", "--format", "json")
    code, out, err = run(capsys, *argv, "--surface", str(diamond))
    assert code == 0, err
    assert json.loads(out)["coefficients"] == json.loads(run(capsys, *argv, "--surface", "k3")[1])["coefficients"]


def test_largest_ideal_file_is_far_under_the_byte_cap(tmp_path, capsys):
    # SIZE_CAP minimal generators, the most an ideal file may hold, pass the
    # byte cap and reach the Hom size cap; one more reaches the count cap.
    from fiberdt.localhom import SIZE_CAP

    gens = [[i, SIZE_CAP - 1 - i, 0] for i in range(SIZE_CAP)]
    path = tmp_path / "largest.json"
    path.write_text(json.dumps(gens))
    assert path.stat().st_size < cli.INPUT_FILE_CAP // 16
    code, _, err = run(capsys, "localhom", "--dmax", "0", "--ideal-file", str(path))
    assert code == 2
    assert "ideal size" in err
    path.write_text(json.dumps(gens + [[SIZE_CAP, 0, 0]]))
    code, _, err = run(capsys, "localhom", "--dmax", "0", "--ideal-file", str(path))
    assert code == 2
    assert "generators exceed the size cap" in err


def test_oversized_ideal_file_is_refused_before_the_minimality_scan(tmp_path, capsys, monkeypatch):
    # The size cap is checked from the exponents in linear time; the scan
    # that compares every pair of generators never starts.
    from fiberdt import localhom

    def no_scan(a, b):
        raise AssertionError("the minimality scan ran")

    monkeypatch.setattr(localhom, "_divides", no_scan)
    path = tmp_path / "antichain.json"
    path.write_text(json.dumps([[a, 1999 - a, 0] for a in range(2000)]))
    code, out, err = run(capsys, "localhom", "--dmax", "1", "--ideal-file", str(path))
    assert (code, out) == (2, "")
    assert "ideal size" in err and "exceeds the cap" in err


@pytest.mark.skipif(not Path("/dev/zero").exists(), reason="needs /dev/zero")
def test_endless_input_file_is_refused(capsys):
    # Its size on disk reads 0; the bounded read still stops it.
    code, _, err = run(capsys, "localhom", "--dmax", "0", "--ideal-file", "/dev/zero")
    assert code == 2
    assert "input file cap" in err


# --- cross-check wiring ----------------------------------------------------------


def test_broken_direct_route_trips_exit_code(monkeypatch, capsys):
    def wrong(chi, q_max):
        return tuple([1] + [0] * q_max)

    monkeypatch.setattr(formulas, "hilbert_euler_direct", wrong)
    code, _, err = run(capsys, "series", "hilb", "--surface", "p2", "--qmax", "3")
    assert code == 3
    assert "cross-check" in err
    # The direct route of incidence and im1 sums this one, so every --euler
    # kind meets a wrong direct series.
    for kind, genus_argv in (("hilb", ()), ("incidence", ()), ("im1", ("--genus", "0"))):
        for fmt in ("json", "csv", "text"):
            code, out, err = run(
                capsys, "series", kind, "--surface", "p2", *genus_argv,
                "--qmax", "3", "--euler", "--format", fmt,
            )
            assert (code, out) == (3, ""), (kind, fmt)
            assert "direct integer series" in err


def test_oracle_check_mismatch_trips_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(formulas, "euler_sequence", lambda kind, geometry, q: (7,) * (q + 1))
    code, out, err = run(capsys, "oracle", "colored", "--chi", "2", "--m", "2", "--check")
    assert code == 3
    assert "check: FAIL" in out
