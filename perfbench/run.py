"""Benchmark of the fiberdt CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each request is one ``python3 -m fiberdt ...`` process, started from this
single benchmark process and waited for before the next one starts (a closed
loop with one client).  Import and interpreter start-up count; nothing
computed by one request is visible to the next, except through ``--cache``
files where the workload asks for them.

A round is the workload's request list for the seed (see workloads.py).
The benchmark repeats whole rounds until the next one would end after S
seconds, checks every output with checks.py and against digests.json, and
prints one JSON object as its last line of output.

With ``--trace 0`` it reports the end-to-end metrics: the wall and CPU time
of a round's requests (each request at its median over the rounds), the
median request wall time,
the largest child RSS, and the set-up time (median of several set-ups).
With ``--trace 1`` every loop runs the round twice, once plainly and once
through tracer.py, and reports per-layer metrics from the traced rounds, a
fresh-interpreter start-up probe per request, and the traced-minus-plain
round time as the tracing overhead.

The program is run from the source tree next to this directory (src/);
outside such a checkout the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE_DIR = ROOT / ".perfbench"
WORK_DIR = STATE_DIR / "work"

# Set-up is timed this many times before the first round, and once more after
# every loop of rounds in a spare directory: the machine's speed drifts over
# seconds, and samples spread over the whole run keep setup_s from following it.
SETUP_REPEATS = 3
SPARE_DIR = STATE_DIR / "setup"

END_TO_END_UNITS = {"wall_s": "s", "req_p50_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer times.  "total" sums the spans of a name that are not nested in a
# span of the same name; "self" subtracts the time of child spans.
TOTAL_TIMES = {
    "formulas.hilbert_s": "formulas.hilbert",
    "formulas.euler_direct_s": "formulas.euler_direct",
    "polyseries.product_s": "polyseries.product",
    "polyseries.mul_s": "polyseries.mul",
    "serialize.dump_s": "serialize.dump",
    "serialize.csv_s": "serialize.csv",
    "serialize.checksum_s": "serialize.checksum",
    "serialize.parse_s": "serialize.parse",
    "cache.read_s": "cache.read",
    "cache.write_s": "cache.write",
    "localhom.hom_s": "localhom.hom",
    "localhom.verify_s": "localhom.verify",
    "linalg.rank_s": "linalg.rank",
    "linalg.nullspace_s": "linalg.nullspace",
}
SELF_TIMES = {
    "formulas.derived_s": ("formulas.derived",),
    "polyseries.symmetry_s": ("polyseries.symmetry",),
    "serialize.document_s": ("serialize.document",),
    "localhom.self_s": ("localhom.hom", "localhom.rows"),
}
COUNTS = (
    "polyseries.factors",
    "polyseries.mul_calls",
    "polyseries.terms",
    "linalg.eliminations",
    "linalg.cells",
    "localhom.unknowns",
    "localhom.rows",
)

PER_LAYER_UNITS = {
    "cli.startup_s": "s",
    **{name: "s" for name in (*TOTAL_TIMES, *SELF_TIMES)},
    **dict.fromkeys(COUNTS, "count"),
    "linalg.eliminations_per_solve": "ratio",
    "serialize.out_bytes": "B",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "trace.overhead_s": "s",
}


class Child:
    """Spawns request processes and collects their exit status and rusage."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.stdout = WORK_DIR / "stdout"
        self.stderr = WORK_DIR / "stderr"

    def run(self, argv):
        """Run argv to completion; return (wall s, cpu s, max RSS KiB, exit code)."""
        mode = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(self.stdout), mode, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(self.stderr), mode, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, os.waitstatus_to_exitcode(status)


def setup_once(workload: str, seed: int, child: Child, work_dir: Path):
    """Inputs, fixture files, an empty cache directory and a warm interpreter
    (byte code compiled, files in the page cache).  Computes no series."""
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    requests = workloads.plan(workload, seed)
    workloads.write_fixtures(requests, work_dir)
    (work_dir / "cache").mkdir()
    _, _, _, code = child.run(["-m", "fiberdt", "--help"])
    if code != 0:
        raise SystemExit(f"fiberdt does not start (exit {code}); see {child.stderr}")
    return requests


class Verifier:
    """Checks each output once per run; later byte-identical outputs of the
    same request pass by their sha256."""

    def __init__(self, digests: dict):
        self.digests = digests
        self.passed: set[tuple[str, str]] = set()
        self.miss_sha: dict[str, str] = {}
        self.cache_state: dict = {}

    def check(self, request, data: bytes, cache_dir: Path | None) -> None:
        sha = hashlib.sha256(data).hexdigest()
        if (request.key, sha) not in self.passed:
            checks.check_output(data.decode(errors="replace"), request.spec)
            self.passed.add((request.key, sha))
        expected = self.digests.get(request.key)
        if expected is None:
            raise checks.CheckError("no recorded digest for this request")
        if sha != expected:
            raise checks.CheckError(f"sha256 {sha[:12]} differs from the recorded {expected[:12]}")
        if request.cache_role is not None:
            self._check_cache(request, sha, cache_dir)

    def _check_cache(self, request, sha, cache_dir: Path) -> None:
        entries = {p.name: p.stat().st_mtime_ns for p in cache_dir.iterdir()}
        base_key = request.key.split(" --format")[0].replace(" --euler", "")
        if request.cache_role == "miss":
            before = self.cache_state.get(cache_dir, {})
            if len(entries) != len(before) + 1 or any(entries.get(k) != v for k, v in before.items()):
                raise checks.CheckError("the miss did not add exactly one cache entry")
            self.miss_sha[base_key] = sha
        else:
            if entries != self.cache_state.get(cache_dir):
                raise checks.CheckError("a hit changed the cache directory")
            if request.spec["format"] == "json" and not request.spec["euler"]:
                if sha != self.miss_sha.get(base_key):
                    raise checks.CheckError("the json hit differs from the json miss")
        self.cache_state[cache_dir] = entries


def _span_times(spans):
    """Per-name total and self times of one request's spans."""
    durations = [end - start for _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[index]
    total, self_time = Counter(), Counter()
    for index, (name, _, _, parent) in enumerate(spans):
        self_time[name] += durations[index] - child_time[index]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total[name] += durations[index]
    return total, self_time


def layer_values(traced_requests) -> dict:
    """Per-layer metrics of one traced round."""
    values = Counter()
    hits = misses = solves = 0
    for record in traced_requests:
        total, self_time = _span_times(record["spans"])
        for metric, name in TOTAL_TIMES.items():
            values[metric] += total[name]
        for metric, names in SELF_TIMES.items():
            values[metric] += sum(self_time[n] for n in names)
        for name in COUNTS:
            values[name] += record["counts"].get(name, 0)
        solves += record["counts"].get("localhom.solves", 0)
        values["serialize.out_bytes"] += record["out_bytes"]
        if record["cache_role"] is not None:
            if total["cache.write"]:
                misses += 1
            elif total["cache.read"]:
                hits += 1
    values["cache.hits"], values["cache.misses"] = hits, misses
    values["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["linalg.eliminations_per_solve"] = values["linalg.eliminations"] / solves if solves else 0.0
    return values


class Runner:
    def __init__(self, requests, child, verifier):
        self.requests = requests
        self.child = child
        self.verifier = verifier
        # Kept in memory and written when the run ends.
        self.trace_requests: list[dict] = []
        self.trace_spans: list[list] = []  # [request id, name, start, end, parent]
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.request_walls: list[float] = []
        self.startup_walls: list[float] = []

    def round(self, index: int, traced: bool) -> dict:
        cache_dir = WORK_DIR / "cache" / f"round-{index}{'-traced' if traced else ''}"
        cache_dir.mkdir(parents=True)
        walls, cpus = [], []
        rss = 0
        traced_requests = []
        for request in self.requests:
            args = list(request.argv)
            if request.cache_role is not None:
                args += ["--cache", str(cache_dir.relative_to(WORK_DIR))]
            spans_file = WORK_DIR / "spans.json"
            spans_file.unlink(missing_ok=True)
            argv = [str(BENCH_DIR / "tracer.py"), str(spans_file), *args] if traced else ["-m", "fiberdt", *args]
            r_wall, r_cpu, r_rss, code = self.child.run(argv)
            self.attempted += 1
            walls.append(r_wall)
            cpus.append(r_cpu)
            rss = max(rss, r_rss)
            if not traced:
                self.request_walls.append(r_wall)
            data = self.child.stdout.read_bytes()
            self._verify(request, code, data, cache_dir)
            if traced:
                record = json.loads(spans_file.read_text()) if spans_file.exists() else {"spans": [], "counts": {}}
                request_id = len(self.trace_requests)
                self.trace_requests.append({"id": request_id, "round": index, "key": request.key, "wall_s": r_wall})
                self.trace_spans.extend([request_id, *span] for span in record["spans"])
                record.update(out_bytes=len(data), cache_role=request.cache_role)
                traced_requests.append(record)
                probe = ["-c", "import sys; from fiberdt.cli import build_parser; "
                         "build_parser().parse_args(sys.argv[1:])", *args]
                self.startup_walls.append(self.child.run(probe)[0])
        result = {"walls": walls, "cpus": cpus, "wall": sum(walls), "rss": rss}
        if traced:
            result["layers"] = layer_values(traced_requests)
        return result

    def _verify(self, request, code, data, cache_dir):
        if code != 0:
            self.failed += 1
            self._note(request, f"exit status {code}: {self.child.stderr.read_text()[-300:]}")
            return
        try:
            self.verifier.check(request, data, cache_dir)
        except checks.CheckError as exc:
            self.failed += 1
            self.wrong += 1
            self._note(request, str(exc))

    def _note(self, request, message):
        if len(self.failures) < 20:
            self.failures.append(f"{request.key}: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fiberdt" / "cli.py").is_file():
        print(f"no fiberdt source tree at {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    digests = json.loads((BENCH_DIR / "digests.json").read_text())

    child = Child()
    setup_times = []

    def timed_setup(work_dir):
        start = time.perf_counter()
        requests = setup_once(args.workload, args.seed, child, work_dir)
        setup_times.append(time.perf_counter() - start)
        return requests

    for _ in range(SETUP_REPEATS):
        requests = timed_setup(WORK_DIR)

    os.chdir(WORK_DIR)  # requests name fixtures and caches relative to it
    runner = Runner(requests, child, Verifier(digests))
    plain, traced = [], []
    begin = time.perf_counter()
    index = 0
    while True:
        loop_start = time.perf_counter()
        order = (False, True) if index % 2 == 0 else (True, False)
        for with_trace in order if args.trace else (False,):
            (traced if with_trace else plain).append(runner.round(index, with_trace))
        timed_setup(SPARE_DIR)
        index += 1
        now = time.perf_counter()
        # Stop before a loop that would end after the run's time; a traced
        # run makes at least two, so that its overhead compares two rounds.
        if now - begin + (now - loop_start) > args.seconds and index >= 1 + args.trace:
            break

    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    if args.trace:
        metrics = _per_layer(plain, traced, runner)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": _round_of_medians(plain, "walls"),
            "req_p50_s": statistics.median(runner.request_walls),
            "cpu_s": _round_of_medians(plain, "cpus"),
            "peak_rss_mb": max(r["rss"] for r in plain) / 1024,
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rounds = {
        "round_wall_s": [r["wall"] for r in plain],
        "round_cpu_s": [sum(r["cpus"]) for r in plain],
        "request_wall_s": [r["walls"] for r in plain],
        "setup_samples_s": setup_times,
    }
    (STATE_DIR / f"result-{stem}.json").write_text(json.dumps(result | rounds, indent=2) + "\n")
    if args.trace:
        trace = {"requests": runner.trace_requests, "spans": runner.trace_spans}
        (STATE_DIR / f"trace-{stem}.json").write_text(json.dumps(trace) + "\n")
    print(json.dumps(result))
    return 0


def _round_of_medians(rounds, key) -> float:
    """One round's total with each request at its median over the rounds:
    a slow spell during one request does not move the others."""
    return sum(statistics.median(column) for column in zip(*(r[key] for r in rounds)))


def _per_layer(plain, traced, runner) -> dict:
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in PER_LAYER_UNITS
        if name not in ("cli.startup_s", "trace.overhead_s")
    }
    metrics["cli.startup_s"] = statistics.median(runner.startup_walls)
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall"] for r in traced) - statistics.median(r["wall"] for r in plain)
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
