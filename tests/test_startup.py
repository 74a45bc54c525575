"""What a CLI request imports, and the lazy ``fiberdt`` namespace.

Each request runs in a fresh interpreter, so the modules it imports are part
of its cost: the CLI loads only the package modules its subcommand runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fiberdt

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


def test_help_imports_only_the_cli(tmp_path):
    modules = loaded_modules(tmp_path, "--help")
    # runpy runs fiberdt/__main__.py as the module __main__.
    submodules = {m for m in modules if m.startswith("fiberdt.")}
    assert "fiberdt.cli" in submodules
    assert submodules <= {"fiberdt.__main__", "fiberdt.cli"}


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


@pytest.mark.parametrize(
    "argv, spans",
    (
        (("localhom", "--dmax", "2", "--format", "json"), {"localhom.hom", "linalg.rref"}),
        (
            ("series", "hilb", "--surface", "k3", "--qmax", "5", "--format", "json"),
            {"formulas.hilbert", "polyseries.product", "polyseries.symmetry"},
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
    names = {span[0] for span in json.loads(spans_file.read_text())["spans"]}
    assert spans <= names


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
