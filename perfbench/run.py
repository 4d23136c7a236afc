"""The switchdwell benchmark: one command, every metric by name and unit, with gates.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, one process at a time; see BENCHMARK.json):

* ``paper_cli`` -- cold ``python3 -m switchdwell.cli run`` on the bundled
  example1 and example2 scenarios, in a seeded order, each into a fresh
  directory.  Chosen because it is the headline number: the only workload
  where import, CSV/JSON emission and sha256 hashing carry weight.  The
  seed orders the runs; the scenarios stay as shipped so that the frozen
  paper values and manifests apply.
* ``trap_sweep`` -- in-process verdicts on seeded affine systems
  (``inproc.py``).  Chosen because kernels and sim do nearly all the work,
  with no emission and no import in the timed region.
* ``callable_modes`` -- in-process verdicts on modes given only as Python
  callables.  Chosen because it bypasses the affine kernels and every
  quadratic fast path: the generic side of each affine/quadratic fork.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half traced and prints the per-layer metrics.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Every child runs with BLAS pinned to one thread.  Exits 2
without a result when the checkout holds no ``src/switchdwell``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "switchdwell"
WORK = ROOT / ".perfbench_work"     # scratch outputs, removed at exit
SPANS = WORK / "spans"              # traced runs leave their spans here
SCENARIOS = ("example1", "example2")
PAPER_CLI_ONLY = (
    "run_s.example1", "run_s.example2", "cli.files_written", "cli.bytes_written",
    "cli.unique_content_ratio", "cli.manifest_files_changed",
)
IMPORT_PROBES = 3
CLI_TIMEOUT = 60
PAPER_RTOL = 1e-12

sys.path.insert(0, str(HERE))
import spans  # noqa: E402  (stdlib-only; the orchestrator never imports numpy)

ENV_PROBE = (
    "import switchdwell, sys, os, json, importlib.util;"
    "print(json.dumps({'package': switchdwell.__file__, 'python': sys.version.split()[0],"
    "'numpy': sys.modules['numpy'].__version__, 'scipy': sys.modules['scipy'].__version__,"
    "'numba': importlib.util.find_spec('numba') is not None,"
    "'blas_threads': os.environ.get('OPENBLAS_NUM_THREADS')}))"
)


class CheckoutError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def timed_run(cmd, timeout: float) -> tuple[float, subprocess.CompletedProcess]:
    t = perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
    )
    return perf_counter() - t, proc


def import_probe(code: str) -> tuple[float, str]:
    wall, proc = timed_run([sys.executable, "-c", code], 60)
    if proc.returncode != 0:
        raise CheckoutError(f"import probe failed: {proc.stderr.strip()[-300:]}")
    return wall, proc.stdout


def import_times(scipy_stats: bool) -> tuple[dict, dict]:
    """Median cold-import times (fresh interpreters) and the environment record."""
    walls, env = [], {}
    for _ in range(IMPORT_PROBES):
        wall, out = import_probe(ENV_PROBE)
        walls.append(wall)
        env = json.loads(out.strip().splitlines()[-1])
    if not Path(env["package"]).resolve().is_relative_to(PACKAGE.resolve()):
        raise CheckoutError(f"switchdwell imported from {env['package']}, not {PACKAGE}")
    env.update(nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)))
    times = {"import.s": statistics.median(walls)}
    if scipy_stats:
        times["import.scipy_stats_s"] = statistics.median(
            import_probe("import scipy.stats")[0] for _ in range(IMPORT_PROBES)
        )
    return times, env


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]) of at least one value."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= PAPER_RTOL * abs(b)


def _paper_checks(name: str, out: Path, paper: dict) -> list[str]:
    """Semantic gates against the frozen paper values."""
    bad = []
    table = json.loads((out / "dwell_table.json").read_text())
    entries = {(e["from"], e["to"]): e["dwell"] for e in table["entries"]}
    if not (_close(table["mu"], paper["mu"]) and _close(table["t_glob"], paper["t_glob"])):
        bad.append("mu or t_glob differs from the paper value")
    if name == "example1":
        if not _close(table["t_loc"], paper["T_1_0"]):
            bad.append("t_loc differs from T_{1,0}")
        for report in ("certificate_report.json", "trapping_report.json"):
            if json.loads((out / report).read_text())["all_passed"] is not True:
                bad.append(f"{report}: verdict is not the known pass")
    else:
        if not _close(entries[("1", "-1")], paper["T_1_m1"]):
            bad.append("T_{1,-1} differs from the paper value")
        if not _close(entries[("1", "0")] + entries[("0", "-1")], paper["detour"]):
            bad.append("detour T_{1,0} + T_{0,-1} differs from the paper value")
        tri = json.loads((out / "triangle_report.json").read_text())
        if not (tri["detour_longer"] is True and abs(tri["gap"] - paper["gap"]) <= 1e-10):
            bad.append("triangle gap differs from the paper value")
    return bad


def check_cli_output(name: str, out: Path, returncode: int, ref: dict, first: dict) -> dict:
    """Gate one CLI run; return its reasons to fail and its output counts.

    The manifest must list exactly the files on disk with their true sha256,
    and match the first run of the same scenario byte for byte.  A differing
    hash against the frozen manifest is counted, not failed.
    """
    res = {"reasons": [], "files": 0, "bytes": 0, "listed": 0, "unique": 0, "changed": 0}
    if returncode != 0:
        res["reasons"].append(f"exit status {returncode}")
        return res
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        hashes = {e["path"]: e["sha256"] for e in manifest["files"]}
        on_disk = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
        if on_disk != set(hashes) | {"manifest.json"}:
            res["reasons"].append("files on disk differ from the manifest")
        actual = {p: sha256_file(out / p) for p in hashes if p in on_disk}
        if actual != hashes:
            res["reasons"].append("a file's bytes differ from its manifest sha256")
        if first.setdefault(name, actual) != actual:
            res["reasons"].append("output bytes differ from the first run of the same code")
        res["reasons"] += _paper_checks(name, out, ref["paper"])
    except (OSError, ValueError, KeyError) as exc:
        res["reasons"].append(f"unreadable output: {type(exc).__name__}: {exc}")
        return res
    frozen = ref["manifests"][name]
    res["files"] = len(on_disk)
    res["bytes"] = sum((out / p).stat().st_size for p in on_disk)
    res["listed"] = len(hashes)
    res["unique"] = len(set(hashes.values()))
    res["changed"] = sum(frozen.get(p) != h for p, h in hashes.items()) + len(set(frozen) - set(hashes))
    return res


def csv_self_test(name: str, out: Path, ref: dict, first: dict) -> list[str]:
    """A changed byte in a trajectory CSV must fail the gate."""
    csv = next(iter(sorted(out.glob("trajectory_*.csv"))), None)
    if csv is None:
        return ["no trajectory CSV to self-test the gate on"]
    data = bytearray(csv.read_bytes())
    i = data.index(b"\n") + 1          # first digit of the first data row
    data[i] = ord("7") if data[i] != ord("7") else ord("3")
    csv.write_bytes(bytes(data))
    if not check_cli_output(name, out, 0, ref, first)["reasons"]:
        return ["changed CSV byte passed the gate"]
    return []


class PaperCli:
    """Closed loop of cold CLI runs over both bundled scenarios."""

    def __init__(self, seed: int, work: Path, ref: dict):
        self.rng = random.Random(seed)
        self.work = work
        self.ref = ref
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.runs: dict[str, list[float]] = {s: [] for s in SCENARIOS}
        self.pass_walls: list[float] = []
        self.layer: dict = {}      # span sums added over the traced passes
        self.out_counts = dict.fromkeys(("files", "bytes", "listed", "unique", "changed"), 0)
        self.kept: Path | None = None
        self.n = 0

    def run_pass(self, traced: bool) -> None:
        order = list(SCENARIOS)
        self.rng.shuffle(order)
        wall_sum = 0.0
        for name in order:
            out = self.work / f"run{self.n}_{name}"
            self.n += 1
            scenario = PACKAGE / "scenarios" / f"{name}.scenario"
            args = ["run", "--scenario", str(scenario), "--out", str(out)]
            spans_file = SPANS / f"paper_cli_{name}.json"
            spans_file.unlink(missing_ok=True)
            if traced:
                cmd = [sys.executable, str(HERE / "cli_driver.py"), str(spans_file)] + args
            else:
                cmd = [sys.executable, "-m", "switchdwell.cli"] + args
            wall, proc = timed_run(cmd, CLI_TIMEOUT)
            wall_sum += wall
            self.attempted += 1
            res = check_cli_output(name, out, proc.returncode, self.ref, self.first)
            if res["reasons"]:
                self.failed += 1
                self.reasons += [f"{name}: {r}" for r in res["reasons"]]
                self.reasons.append(proc.stderr.strip()[-300:])
            if traced and spans_file.is_file():
                for k, v in spans.layer_sums(json.loads(spans_file.read_text())).items():
                    self.layer[k] = self.layer.get(k, 0.0) + v
            if traced:
                for k in self.out_counts:
                    self.out_counts[k] += res[k]
            else:
                self.runs[name].append(wall)
            if name == "example1" and not res["reasons"]:
                # keep the newest correct example1 output for the CSV self-test
                if self.kept is not None:
                    shutil.rmtree(self.kept, ignore_errors=True)
                self.kept = out
            else:
                shutil.rmtree(out, ignore_errors=True)
        self.pass_walls.append(wall_sum)

    def run_for(self, seconds: float, traced: bool) -> list[float]:
        start = len(self.pass_walls)
        deadline = perf_counter() + seconds
        while True:
            self.run_pass(traced)
            if perf_counter() >= deadline:
                return self.pass_walls[start:]

    def self_test(self) -> list[str]:
        if self.kept is None:
            return ["no correct example1 output to self-test the gate on"]
        return csv_self_test("example1", self.kept, self.ref, self.first)


def end_to_end(setup_s: float, walls: list, op_times: list) -> dict:
    """Pass and op times as means over the run's passes, percentiles over the op mix.

    On a shared virtual machine the CPU can flip between a fast and a slow
    speed about once a second, so a short op lands wholly in one state and
    the median of raw op samples jumps between the two; a mean over the run
    averages the flips.  ``op_times`` holds, per op of a pass, that op's
    latencies over the run.
    """
    op_means = [statistics.fmean(t) for t in op_times]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(walls),
        "op_p50_ms": 1e3 * percentile(op_means, 50),
        "op_p90_ms": 1e3 * percentile(op_means, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def traced_common(imports: dict, untraced: list, traced: list) -> dict:
    return {**imports, "trace.overhead_s": statistics.median(traced) - statistics.median(untraced)}


def paper_cli(args, work: Path) -> tuple[dict, dict]:
    t = perf_counter()
    ref = json.loads((HERE / "reference.json").read_text())
    load_s = perf_counter() - t
    imports, env = import_times(scipy_stats=bool(args.trace))
    loop = PaperCli(args.seed, work, ref)
    info = {"env": env}
    untraced = loop.run_for(args.seconds / (2 if args.trace else 1), traced=False)
    ops = [loop.runs[name] for name in SCENARIOS]
    if not args.trace:
        metrics = end_to_end(imports["import.s"] + load_s, untraced, ops)
    else:
        traced = loop.run_for(args.seconds / 2, traced=True)
        n = len(traced)
        counts = loop.out_counts
        metrics = spans.per_layer({k: v / n for k, v in loop.layer.items()})
        metrics.update(traced_common(imports, untraced, traced))
        metrics.update({
            "run_s.example1": statistics.median(loop.runs["example1"]),
            "run_s.example2": statistics.median(loop.runs["example2"]),
            "cli.files_written": counts["files"] / n,
            "cli.bytes_written": counts["bytes"] / n,
            "cli.unique_content_ratio": counts["unique"] / counts["listed"] if counts["listed"] else 0.0,
            "cli.manifest_files_changed": counts["changed"] / n,
        })
        if (SPANS / "paper_cli_example1.json").is_file():
            info["example1_share"] = example1_share(SPANS / "paper_cli_example1.json")
    missed = loop.self_test()
    info.update(passes=len(loop.pass_walls), op_samples=sum(map(len, ops)),
                failures=loop.reasons[:10], self_test_missed=missed)
    return {"metrics": metrics, "attempted": loop.attempted, "failed": loop.failed,
            "correct": loop.failed == 0 and not missed}, info


def example1_share(spans_file: Path) -> dict:
    """Shares of example1's in-process time (the cli.main span) by layer."""
    s = spans.layer_sums(json.loads(spans_file.read_text()))
    total = s.get("cli.main.incl_s", 0.0)
    parts = {
        "kernels": s.get("kernels.affine_rk4_path.incl_s", 0.0)
        + s.get("kernels.affine_rk4_batch_final.incl_s", 0.0),
        "emission": s.get("cli.run_scenario.self_s", 0.0)
        + s.get("cli.emit_plot_data.self_s", 0.0) + s.get("lyapunov.v_eval.incl_s", 0.0),
    }
    return {"main_s": total, **{k: v / total for k, v in parts.items()}} if total else {}


def inproc(args) -> tuple[dict, dict]:
    imports, env = import_times(scipy_stats=bool(args.trace))
    cmd = [
        sys.executable, str(HERE / "inproc.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--spans-dir", str(SPANS),
    ]
    _, proc = timed_run(cmd, 2 * args.seconds + 60)
    if proc.returncode != 0:
        raise CheckoutError(f"workload process failed: {proc.stderr.strip()[-500:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    info = {**res["info"], "env": env, "passes": len(res["walls"]),
            "op_samples": len(res["latencies"])}
    if not args.trace:
        n = res["info"]["ops_per_pass"]
        ops = [res["latencies"][i::n] for i in range(n)]
        metrics = end_to_end(imports["import.s"] + res["gen_s"], res["walls"], ops)
    else:
        metrics = res["layers"]
        metrics.update(traced_common(imports, res["walls"], res["traced_walls"]))
        metrics.update(dict.fromkeys(PAPER_CLI_ONLY, 0.0))
    return {"metrics": metrics, "attempted": res["attempted"], "failed": res["failed"],
            "correct": res["correct"]}, info


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no switchdwell package under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    SPANS.mkdir(exist_ok=True)
    try:
        if args.workload == "paper_cli":
            res, info = paper_cli(args, work)
        else:
            res, info = inproc(args)
    except (CheckoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = res["metrics"]
    if args.trace:
        metrics["fail_ratio"] = res["failed"] / res["attempted"]
    if set(metrics) != {m["name"] for m in wanted}:
        print(f"error: metrics {sorted(set(metrics) ^ {m['name'] for m in wanted})} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    print("perfbench info: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
