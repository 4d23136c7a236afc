"""Interleaved in-process A/B of the working tree's package against a git revision of it.

Usage, from anywhere in the repository:

    python tools/ab.py --base REV --workload W --seed N --rounds R [--kind K]

``src/switchdwell`` at REV is extracted (``git archive``) into a temporary
directory and imported as the package ``switchdwell_base``.  The workload's
ops are built once by ``perfbench/gen.py`` with the working tree's package,
and ``perfbench/inproc.py``'s ``run_op`` runs them against each package (a
second copy of ``inproc`` is loaded with ``switchdwell`` bound to the base).
So both sides get the very same systems, signals and starts, and the methods
of those objects (``Subsystem.v_batch``, ``Subsystem.lie_batch``, ...) run the
working tree's code on both sides: the A/B compares the package's functions
(``sim``, ``dwell``, ``lyapunov``, ``kernels``), not ``core``'s methods.
``--kind`` keeps only the ops of one kind (``sim``, ``tube``, ...).

One untimed pass per side fills the caches, and its results are compared op
by op: every number, label and array must be the same bits, else the largest
absolute difference is reported.  Then each round times one whole pass per
side, alternating which side runs first, and the report gives the median of
the per-round time ratios tree/base, their quartiles, a bootstrap 95%
interval of that median and the rounds the tree won.

Each op is also timed inside those passes, and the report gives the ratios
tree/base of the p50 and p90 of the per-op means, taken as perfbench's
``end_to_end`` takes ``op_p50_ms`` and ``op_p90_ms``: the mean latency of
each op over the rounds, then a linear-interpolated percentile across the
ops.  Each comes with the quartiles of the same ratio taken round by round
and a bootstrap 95% interval over resampled rounds.  The two sides are
separate copies of the package with caches of their own, so a cost that
recurs in every pass, such as replanning, shows as it does in perfbench.

Last, the per-op paired ratio: each op's median over the rounds of its
tree/base time ratio, and the median of those over the ops, with a bootstrap
95% interval over resampled rounds.  A stretch of a pass that ran at
another machine speed moves that round's pass ratio, but only the ratios of
the ops it overlapped, and each op's median drops it; so this ratio is meant
for workloads of long passes, such as ``callable_modes``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import math
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:  # loaded by path, as the tests do
    sys.path.insert(0, str(HERE))
from checkout import ROOT, extract  # noqa: E402

BOOTSTRAP = 2000


def _import_base(rev: str, where: Path):
    """``src/switchdwell`` at ``rev``, imported as ``switchdwell_base`` with all its modules."""
    extract(rev, where).rename(where / "switchdwell_base")
    for name in [m for m in sys.modules if m.split(".")[0] == "switchdwell_base"]:
        del sys.modules[name]  # a base imported by an earlier call
    sys.path.insert(0, str(where))
    package = importlib.import_module("switchdwell_base")
    for path in sorted((where / "switchdwell_base").glob("*.py")):
        importlib.import_module(f"switchdwell_base.{path.stem}")
    return package


def _load_as(name: str, path: Path, package):
    """A fresh copy of the module at ``path``, with ``switchdwell`` bound to ``package``."""
    saved = sys.modules.get("switchdwell")
    sys.modules["switchdwell"] = package
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.modules["switchdwell"] = saved
    return module


def _leaves(obj, path: str = ""):
    """(path, value) for every array, number and label in a result, in a fixed order."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            if not f.name.startswith("_"):  # caches and attachments are not results
                yield from _leaves(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, (list, tuple)):
        yield f"{path}#len", len(obj)
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, obj


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        )
    return type(a).__name__ == type(b).__name__ and repr(a) == repr(b)  # repr: every float bit


def difference(a, b):
    """None when two results are the same bits, else their largest absolute difference.

    The difference is inf where the results differ in structure, in a label
    or in a NaN.
    """
    la, lb = list(_leaves(a)), list(_leaves(b))
    if [p for p, _ in la] != [p for p, _ in lb]:
        return math.inf
    worst = None
    for (_, x), (_, y) in zip(la, lb):
        if _same(x, y):
            continue
        d = math.inf
        if type(x) is type(y) and isinstance(x, (float, np.ndarray)):
            try:
                d = float(np.max(np.abs(np.subtract(x, y, dtype=float))))
            except (TypeError, ValueError):  # boolean arrays, shapes that differ
                pass
        d = math.inf if math.isnan(d) else d
        worst = d if worst is None else max(worst, d)
    return worst


def _pass(run_op, ops) -> tuple[float, list, list]:
    """(seconds for the pass, the results, seconds for each op)."""
    results, op_times = [], []
    start = perf_counter()
    for op in ops:
        t = perf_counter()
        results.append(run_op(op))
        op_times.append(perf_counter() - t)
    return perf_counter() - start, results, op_times


def _op_percentiles(base, tree, draws) -> dict:
    """Ratios tree/base of the p50 and p90 of per-op means, from rounds x ops time arrays.

    Per percentile: the ratio over all rounds, the quartiles of the per-round
    ratios and a bootstrap 95% interval from the resampled rounds ``draws``.
    """
    rounds = len(base)
    weights = np.array([np.bincount(d, minlength=rounds) for d in draws]) / rounds
    out = {}
    for q in (50, 90):
        whole = np.percentile(tree.mean(axis=0), q) / np.percentile(base.mean(axis=0), q)
        per_round = np.percentile(tree, q, axis=1) / np.percentile(base, q, axis=1)
        boot = np.percentile(weights @ tree, q, axis=1) / np.percentile(weights @ base, q, axis=1)
        out[f"op_p{q}"] = {
            "ratio": float(whole),
            "iqr": tuple(np.percentile(per_round, [25, 75]).tolist()),
            "interval": tuple(np.percentile(boot, [2.5, 97.5]).tolist()),
        }
    return out


def _per_op_ratio(base, tree, draws) -> dict:
    """Median over ops of each op's median tree/base ratio across rounds, and its bootstrap 95%."""
    ratios = tree / base  # rounds x ops

    def statistic(rows):
        return np.median(np.median(rows, axis=0))

    boot = [statistic(ratios[d]) for d in draws]
    return {"median": float(statistic(ratios)),
            "interval": tuple(np.percentile(boot, [2.5, 97.5]).tolist())}


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, metavar="REV")
    ap.add_argument("--workload", required=True, choices=("trap_sweep", "callable_modes"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--kind", help="time only the ops of this kind")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import gen
    import inproc

    with tempfile.TemporaryDirectory() as tmp:
        base = _import_base(args.base, Path(tmp))
        base_inproc = _load_as("inproc_base", ROOT / "perfbench" / "inproc.py", base)
        runners = {"base": base_inproc.run_op, "tree": inproc.run_op}
        ops = [op for op in gen.BUILDERS[args.workload](args.seed)
               if args.kind in (None, op.kind)]
        if not ops:
            raise SystemExit(f"ab: no op of kind {args.kind!r} in {args.workload}")
        first = {name: _pass(run, ops)[1] for name, run in runners.items()}
        diffs = [difference(a, b) for a, b in zip(first["base"], first["tree"])]
        times = {"base": [], "tree": []}
        op_times = {"base": [], "tree": []}
        for r in range(args.rounds):
            for name in ("base", "tree") if r % 2 == 0 else ("tree", "base"):
                seconds, _, per_op = _pass(runners[name], ops)
                times[name].append(seconds)
                op_times[name].append(per_op)

    ratios = np.array(times["tree"]) / np.array(times["base"])
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    draws = np.random.default_rng(0).integers(0, len(ratios), (BOOTSTRAP, len(ratios)))
    medians = np.median(ratios[draws], axis=1)
    lo, hi = np.percentile(medians, [2.5, 97.5])
    base_ops, tree_ops = np.array(op_times["base"]), np.array(op_times["tree"])
    percentiles = _op_percentiles(base_ops, tree_ops, draws)
    per_op = _per_op_ratio(base_ops, tree_ops, draws)
    wins = int((ratios < 1.0).sum())
    unequal = [d for d in diffs if d is not None]
    kinds = sorted({op.kind for op in ops})
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops ({', '.join(kinds)}), "
          f"base {args.base}, {args.rounds} rounds")
    if unequal:
        print(f"results: {len(unequal)} of {len(ops)} ops differ, "
              f"largest difference {max(unequal):.3e}")
    else:
        print(f"results: bitwise equal on all {len(ops)} ops")
    print(f"pass time: base {1e3 * np.median(times['base']):.3f} ms, "
          f"tree {1e3 * np.median(times['tree']):.3f} ms (medians)")
    print(f"ratio tree/base: median {median:.4f}, IQR {q1:.4f}-{q3:.4f}, "
          f"bootstrap 95% {lo:.4f}-{hi:.4f}, tree faster in {wins}/{args.rounds} rounds")
    for name, p in percentiles.items():
        print(f"{name} of per-op means, ratio tree/base: {p['ratio']:.4f}, "
              f"per-round IQR {p['iqr'][0]:.4f}-{p['iqr'][1]:.4f}, "
              f"bootstrap 95% {p['interval'][0]:.4f}-{p['interval'][1]:.4f}")
    print(f"per-op paired ratio tree/base (median over ops of each op's median): "
          f"{per_op['median']:.4f}, bootstrap 95% "
          f"{per_op['interval'][0]:.4f}-{per_op['interval'][1]:.4f}")
    return {"ops": len(ops), "unequal": len(unequal), "median": float(median),
            "iqr": (float(q1), float(q3)), "interval": (float(lo), float(hi)), "wins": wins,
            **percentiles, "per_op": per_op}


if __name__ == "__main__":
    main()
