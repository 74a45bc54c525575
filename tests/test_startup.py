"""What a CLI request imports, how its process ends, and the lazy
``fiberdt`` namespace.

Each request runs in a fresh interpreter, so the modules it imports are part
of its cost: the CLI loads only the package modules its subcommand runs, and
the process ends without interpreter teardown once its output is flushed.
"""

import atexit
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fiberdt
import fiberdt.__main__ as entry
from fiberdt import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACER = ROOT / "perfbench" / "tracer.py"

# Runs ``python -m fiberdt ARGS`` in this interpreter, then writes the names
# in sys.modules to the file named by the first argument.
RUNNER = """\
import runpy, sys
out, sys.argv = sys.argv[1], ["fiberdt", *sys.argv[2:]]
try:
    runpy.run_module("fiberdt", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
with open(out, "w") as fh:
    fh.write("\\n".join(sorted(sys.modules)))
sys.exit(code)
"""


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def loaded_modules(tmp_path, *argv) -> set[str]:
    out = tmp_path / "modules.txt"
    result = subprocess.run(
        [sys.executable, "-c", RUNNER, str(out), *argv],
        env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return set(out.read_text().split())


def test_localhom_imports_no_series_modules(tmp_path):
    modules = loaded_modules(tmp_path, "localhom", "--dmax", "1")
    assert {"fiberdt.cli", "fiberdt.localhom", "fiberdt.linalg"} <= modules
    for name in ("formulas", "polyseries", "serialize", "geometry", "oracles"):
        assert f"fiberdt.{name}" not in modules
    assert "dataclasses" not in modules
    assert "hashlib" not in modules


def test_series_imports_no_localhom_modules(tmp_path):
    for fmt in ("json", "csv"):
        modules = loaded_modules(
            tmp_path, "series", "hilb", "--surface", "p2", "--qmax", "2", "--format", fmt
        )
        assert {"fiberdt.formulas", "fiberdt.polyseries", "fiberdt.serialize"} <= modules
        for name in ("localhom", "linalg", "oracles"):
            assert f"fiberdt.{name}" not in modules
        assert "dataclasses" not in modules
        assert "csv" not in modules  # the CSV writers format their rows themselves


def package_modules(modules) -> set[str]:
    """The fiberdt submodules in ``modules``, without the package prefix;
    runpy runs fiberdt/__main__.py as the module __main__."""
    return {m.split(".", 1)[1] for m in modules if m.startswith("fiberdt.")} - {"__main__"}


# The README's table of the package modules each subcommand imports.
@pytest.mark.parametrize(
    "argv, expected",
    (
        (("dt", "--surface", "k3", "--mmax", "2"), {"cli", "geometry", "polyseries", "formulas"}),
        (("oracle", "colored", "--chi", "2", "--m", "3"), {"cli", "oracles"}),
        (
            ("oracle", "colored", "--chi", "2", "--m", "3", "--check"),
            {"cli", "oracles", "geometry", "polyseries", "formulas"},
        ),
    ),
    ids=("dt", "oracle", "oracle-check"),
)
def test_subcommand_imports_match_the_readme_table(tmp_path, argv, expected):
    modules = loaded_modules(tmp_path, *argv)
    assert package_modules(modules) == expected
    assert "dataclasses" not in modules


def test_help_imports_only_the_cli(tmp_path):
    modules = loaded_modules(tmp_path, "--help")
    # runpy runs fiberdt/__main__.py as the module __main__.
    submodules = {m for m in modules if m.startswith("fiberdt.")}
    assert "fiberdt.cli" in submodules
    assert submodules <= {"fiberdt.__main__", "fiberdt.cli"}


# --- the end of a request ---------------------------------------------------------


def fiberdt_process(*argv, **streams):
    """``python -m fiberdt ARGV`` run to completion, by default with its
    stdout and stderr captured.  PYTHONUNBUFFERED is dropped, so that stdout
    holds what is written to it until it is flushed."""
    streams = streams or {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "fiberdt", *argv], env=env, timeout=60, **streams)


@pytest.mark.parametrize(
    "argv",
    (
        # About 580 kB, more than a pipe holds: most of it is written at once.
        ("series", "hilb", "--surface", "k3", "--qmax", "21", "--format", "json"),
        # A few hundred bytes, which stay in the stream's buffer until a flush.
        ("dt", "--surface", "k3", "--mmax", "3"),
    ),
)
def test_a_request_flushes_its_whole_output(tmp_path, capsys, argv):
    assert cli.main(list(argv)) == 0
    expected = capsys.readouterr().out.encode()
    piped = fiberdt_process(*argv)
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == expected
    out = tmp_path / "out.json"
    written = fiberdt_process(*argv, "--out", str(out))
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert out.read_bytes() == expected


@pytest.mark.parametrize(
    "argv, code, message",
    (
        (
            ("series", "hilb", "--surface", "k3"),
            1,
            "usage error: the following arguments are required: --qmax\n",
        ),
        (
            ("series", "hilb", "--surface", "k3", "--qmax", "51"),
            2,
            "validation error: qmax 51 exceeds the cap 50\n",
        ),
    ),
)
def test_an_error_exit_keeps_its_code_and_message(capsys, argv, code, message):
    assert cli.main(list(argv)) == code
    assert capsys.readouterr() == ("", message)
    result = fiberdt_process(*argv)
    assert (result.returncode, result.stdout, result.stderr.decode()) == (code, b"", message)


@pytest.mark.parametrize(
    "argv, code, message",
    (
        # The write itself fails inside the request: a validation error.
        (
            ("series", "hilb", "--surface", "k3", "--qmax", "21", "--format", "json"),
            2,
            "validation error: [Errno 28] No space left on device\n",
        ),
        # The output waits in the buffer, so the flush at exit fails and the
        # normal exit reports it, as an interpreter without the handler does.
        (
            ("dt", "--surface", "k3", "--mmax", "3"),
            120,
            "OSError: [Errno 28] No space left on device\n",
        ),
    ),
    ids=("write", "flush"),
)
def test_a_full_device_fails_the_request(argv, code, message):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    with open("/dev/full", "wb") as full:
        result = fiberdt_process(*argv, stdout=full, stderr=subprocess.PIPE)
    assert result.returncode == code
    assert result.stderr.decode().endswith(message)


@pytest.mark.skipif(os.name != "posix", reason="closes a file descriptor in the child")
@pytest.mark.parametrize(
    "argv",
    (("localhom", "--dmax", "1"), ("oracle", "colored", "--chi", "2", "--m", "3", "--check")),
)
def test_a_closed_stdout_is_a_validation_error(tmp_path, capsys, argv):
    # With file descriptor 1 closed, Python starts with sys.stdout None, and
    # print would drop the output without an error.
    def close_stdout():
        os.close(1)

    result = fiberdt_process(*argv, stderr=subprocess.PIPE, preexec_fn=close_stdout)
    assert result.returncode == 2
    assert result.stderr == b"validation error: standard output is closed\n"
    if argv[0] == "localhom":
        # --out does not need stdout.
        assert cli.main(list(argv)) == 0
        expected = capsys.readouterr().out.encode()
        out = tmp_path / "out.txt"
        written = fiberdt_process(
            *argv, "--out", str(out), stderr=subprocess.PIPE, preexec_fn=close_stdout
        )
        assert (written.returncode, written.stderr) == (0, b"")
        assert out.read_bytes() == expected


class _Stream:
    """A standard stream that records its flushes, and may fail them."""

    def __init__(self, name, events, fails=False):
        self.name, self.events, self.fails = name, events, fails

    def flush(self):
        self.events.append(self.name)
        if self.fails:
            raise OSError(28, "No space left on device")


def _patch_exit(monkeypatch, failing=None):
    events = []
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", events, failing == "stdout"))
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", events, failing == "stderr"))
    monkeypatch.setattr(os, "_exit", lambda code: events.append(("_exit", code)))
    return events


def test_the_exit_handler_ends_the_process_after_both_flushes(monkeypatch):
    events = _patch_exit(monkeypatch)
    entry._exit_flushed(3)
    assert events == ["stdout", "stderr", ("_exit", 3)]


@pytest.mark.parametrize("failing", ("stdout", "stderr"))
def test_the_exit_handler_leaves_a_failed_flush_to_the_normal_exit(monkeypatch, failing):
    events = _patch_exit(monkeypatch, failing)
    assert entry._exit_flushed(0) is None
    assert events == ["stdout", "stderr"][: 1 if failing == "stdout" else 2]


def test_only_the_entry_point_registers_the_exit(monkeypatch, capsys):
    registered = []
    monkeypatch.setattr(atexit, "register", lambda *args: registered.append(args))
    assert cli.main(["localhom", "--dmax", "1"]) == 0
    assert registered == []
    monkeypatch.setattr(sys, "argv", ["fiberdt", "localhom", "--dmax", "-1"])
    assert entry.run() == 2
    assert registered == [(entry._exit_flushed, 2)]
    assert "dmax must be nonnegative" in capsys.readouterr().err


def test_the_fiberdt_script_runs_the_entry_point():
    import importlib

    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["fiberdt"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is entry.run


# --- the lazy namespace ------------------------------------------------------------


def test_every_public_name_is_the_submodule_object():
    import importlib

    for name in fiberdt.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"fiberdt.{fiberdt._MODULE_OF[name]}")
        assert name in module.__all__, name
        assert getattr(fiberdt, name) is getattr(module, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from fiberdt import *", namespace)
    assert set(fiberdt.__all__) <= set(namespace)
    from fiberdt.localhom import hom_dimension

    assert namespace["hom_dimension"] is hom_dimension


def test_dir_covers_all():
    assert set(fiberdt.__all__) <= set(dir(fiberdt))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fiberdt.no_such_name
    assert not hasattr(fiberdt, "_private")


def test_version_is_unchanged():
    assert fiberdt.__version__ == "0.1.0"


def test_public_names_match_the_source_map():
    assert set(fiberdt.__all__) == {*fiberdt._MODULE_OF, "__version__"}
    assert len(fiberdt.__all__) == len(set(fiberdt.__all__))


# --- the benchmark tracer ---------------------------------------------------------


# Counters the tracer must record, by subcommand: four solves (both built-in
# models at D = 1 and 2) for localhom.  A renamed function would read 0 here
# instead of failing.
TRACER_COUNTS = {"localhom": {"localhom.rows": 40, "localhom.solves": 4, "localhom.unknowns": 55}}


@pytest.mark.parametrize(
    "argv, spans",
    (
        (
            ("localhom", "--dmax", "2", "--format", "json"),
            {"localhom.hom", "localhom.rows", "localhom.verify", "linalg.nullspace"},
        ),
        (
            ("series", "hilb", "--surface", "k3", "--qmax", "5", "--format", "json"),
            {"formulas.euler_direct", "polyseries.product", "polyseries.symmetry"},
        ),
        (
            ("dt", "--surface", "k3", "--mmax", "3", "--format", "json"),
            {"polyseries.product", "formulas.euler_direct"},
        ),
    ),
)
def test_tracer_wraps_the_lazily_imported_functions(tmp_path, argv, spans):
    if not TRACER.is_file():
        pytest.skip("perfbench/ is not part of this tree")
    spans_file = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(TRACER), str(spans_file), *argv],
        env=_env(), capture_output=True, timeout=60,
    )
    plain = subprocess.run(
        [sys.executable, "-m", "fiberdt", *argv], env=_env(), capture_output=True, timeout=60
    )
    assert traced.returncode == 0, traced.stderr
    assert plain.returncode == 0, plain.stderr
    assert traced.stdout == plain.stdout
    document = json.loads(spans_file.read_text())
    assert spans <= {span[0] for span in document["spans"]}
    counts = TRACER_COUNTS.get(argv[0], {})
    assert {name: document["counts"].get(name) for name in counts} == counts


def test_tracer_reads_a_cache_hit_like_the_plain_run(tmp_path):
    if not TRACER.is_file():
        pytest.skip("perfbench/ is not part of this tree")
    cache = tmp_path / "cache"
    argv = (
        "series", "hilb", "--surface", "k3", "--qmax", "5", "--format", "json",
        "--cache", str(cache),
    )
    plain = [sys.executable, "-m", "fiberdt", *argv]
    miss = subprocess.run(plain, env=_env(), capture_output=True, timeout=60)
    assert miss.returncode == 0, miss.stderr
    entries = {p.name: p.read_bytes() for p in cache.iterdir()}
    spans_file = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(TRACER), str(spans_file), *argv],
        env=_env(), capture_output=True, timeout=60,
    )
    hit = subprocess.run(plain, env=_env(), capture_output=True, timeout=60)
    assert traced.returncode == 0, traced.stderr
    assert hit.returncode == 0, hit.stderr
    assert traced.stdout == hit.stdout == miss.stdout
    assert {p.name: p.read_bytes() for p in cache.iterdir()} == entries
    names = {span[0] for span in json.loads(spans_file.read_text())["spans"]}
    assert {"cache.read", "serialize.parse"} <= names
    assert "cache.write" not in names  # a hit: the entry was read, not rewritten
