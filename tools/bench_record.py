#!/usr/bin/env python3
"""Record a performance comparison of two dimkit trees as BENCH_<name>.json.

    python3 tools/bench_record.py --name 12 --scratch /tmp/bench \\
        --runs gen-tasks=100-111 annotate=100-109 augment=100-109 bootstrap=100-109 \\
        --seconds 24 --trace-seed 0

The base tree is ``git archive`` of ``--base`` (default HEAD); the head
tree is ``--head`` exported the same way or, by default, a copy of the
working tree's ``src/`` and ``perfbench/``.  Both go under ``--scratch``
as fresh directories, so neither side reuses bytecode or work files of
the other, and git's own metadata is left alone.  Each side runs its own
unchanged ``perfbench/run.py``.

For every workload and seed the two sides run as one pair, ``--trace 0``,
in alternating order (base first on even pairs, head first on odd ones),
so slow drift of the machine falls on both sides alike.  The JSON holds:

* ``sides``: each side's revision and ``src_lines``, the line count of
  its ``src/dimkit/*.py`` as ``wc -l`` counts it;
* ``runs``: every run's printed result and run record;
* ``pairs``: per workload, each pair's metrics and head/base ratios;
* ``summary``: per workload and metric, the median and quartiles of each
  side, the change of the medians, how many pairs the head won, and
  ``gain_shown``: the head won at least 9 of 10 pairs and its median is
  better by more than the base's interquartile range
  (``change_exceeds_base_iqr`` holds for a move either way);
* ``digests``: the round-0 digest verdict of every run;
* ``traced``: with ``--trace-seed``, each side's per-layer metrics of
  one traced run per workload and its ten largest traced self times;
* ``floor``: the process floor of each side, the median wall time and
  peak RSS of fresh ``python3 -c pass`` and ``import dimkit.cli``
  processes, and the median wall time of
  ``python3 -m dimkit.cli --kb <packaged KB> convert 1 meter centimeter``,
  the command ``setup_s`` times, run as perfbench runs it.  Each ``-c``
  child reports its own peak RSS (``VmHWM``): the ``wait4`` max-RSS of a
  child starts from its parent's high-water mark, so it would read this
  script.  ``convert`` leaves through ``os._exit`` and reports none, so
  ``convert_main_vmhwm`` runs the same command through ``dimkit.cli.main``
  in ``-c`` for its peak RSS alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("items_per_s", "setup_s", "peak_rss_mb")
HIGHER_IS_BETTER = {"items_per_s": True, "setup_s": False, "peak_rss_mb": False}
# The interpreter arguments of each floor command; {kb} is the tree's packaged KB.
FLOOR = {
    "bare_interpreter": ["-c", "pass"],
    "import_dimkit_cli": ["-c", "import dimkit.cli"],
    "convert": ["-m", "dimkit.cli", "--kb", "{kb}", "convert", "1", "meter", "centimeter"],
    "convert_main_vmhwm": ["-c", 'from dimkit.cli import main; main(["convert", "1", "meter", "centimeter"])'],
}
VMHWM_ONLY = ("convert_main_vmhwm",)  # its wall time is not what setup_s times
# appended to each -c floor command: its last stdout line is the child's VmHWM in kB
PRINT_VMHWM = "\nprint(next(ln.split()[1] for ln in open('/proc/self/status') if ln.startswith('VmHWM:')))"
FLOOR_REPEATS = 15  # fresh processes per side and floor command


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str | None, dest: Path) -> dict:
    """A fresh tree with src/ and perfbench/: rev's via git archive, or
    the working tree's when rev is None."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    if rev is None:
        ignore = shutil.ignore_patterns("__pycache__", ".perfbench_work")
        for part in ("src", "perfbench"):
            shutil.copytree(ROOT / part, dest / part, ignore=ignore)
        shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
        return {"rev": git("rev-parse", "HEAD"), "working_tree": True,
                "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench"))}
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "archive", sha, "src", "perfbench", "BENCHMARK.json"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return {"rev": sha, "working_tree": False}


def source_lines(tree: Path) -> int:
    """The number of lines of a tree's src/dimkit/*.py."""
    return sum(f.read_bytes().count(b"\n") for f in (tree / "src" / "dimkit").glob("*.py"))


def perfbench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench run: its JSON result and its run record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree.name} {workload} seed {seed}: perfbench failed:\n{proc.stderr[-800:]}")
    record = next(json.loads(ln[len("# record "):]) for ln in lines if ln.startswith("# record "))
    return {"result": json.loads(lines[-1]), "record": record}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict]) -> dict:
    out = {}
    for metric in METRICS:
        base = [p["base"][metric] for p in pairs]
        head = [p["head"][metric] for p in pairs]
        sign = 1 if HIGHER_IS_BETTER[metric] else -1
        b, h = quartiles(base), quartiles(head)
        change = h["median"] - b["median"]
        wins = sum(sign * (y - x) > 0 for x, y in zip(base, head))  # a tie is no win
        out[metric] = {
            "base": b,
            "head": h,
            "median_change": change / b["median"] if b["median"] else None,
            "head_wins": wins,
            "pairs": len(pairs),
            "change_exceeds_base_iqr": abs(change) > b["q3"] - b["q1"],
            # a gain, not just a move: 9 of 10 pairs won and the median
            # better by more than the base's interquartile range
            "gain_shown": wins >= 0.9 * len(pairs) and sign * change > b["q3"] - b["q1"],
        }
    return out


def top_self_times(tree: Path, workload: str, seed: int, n: int = 10) -> list:
    """The n largest traced self times of a traced round, summed over its commands."""
    totals: dict[str, float] = {}
    for stats in sorted((tree / ".perfbench_work" / f"{workload}-{seed}" / "round-0").glob("stats-*-1.json")):
        for name, f in json.loads(stats.read_text())["functions"].items():
            totals[name] = totals.get(name, 0.0) + f["self_s"]
    return sorted(([k, round(v, 6)] for k, v in totals.items()), key=lambda kv: -kv[1])[:n]


def floor_command(key: str, tree: Path) -> list[str]:
    """The argv of a floor command in a tree; a -c command prints its
    VmHWM last."""
    args = [a.format(kb=tree / "src" / "dimkit" / "data" / "units.tsv") for a in FLOOR[key]]
    if args[0] == "-c":
        args[1] += PRINT_VMHWM
    return [sys.executable, *args]


def process_floor(trees: dict[str, Path]) -> dict:
    """Median wall time and peak RSS (the child's own VmHWM, for -c
    commands) of fresh interpreters, sides alternating."""
    samples = {side: {k: [] for k in FLOOR} for side in trees}
    for i in range(FLOOR_REPEATS):
        for side in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
            env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "DIMKIT"))}
            env["PYTHONPATH"] = str(trees[side] / "src")
            for key, args in FLOOR.items():
                start = time.perf_counter()
                proc = subprocess.run(floor_command(key, trees[side]), env=env, cwd=trees[side],
                                      capture_output=True, text=True)
                wall = time.perf_counter() - start
                if proc.returncode == 0:
                    vmhwm = int(proc.stdout.split()[-1]) / 1024.0 if args[0] == "-c" else None
                    samples[side][key].append((wall, vmhwm))
    return {
        side: {
            key: {
                "median_s": statistics.median(w for w, _ in s) if s and key not in VMHWM_ONLY else None,
                "vmhwm_mb": statistics.median(r for _, r in s) if s and s[0][1] is not None else None,
                "samples": len(s),
            }
            for key, s in by_key.items()
        }
        for side, by_key in samples.items()
    }


def parse_runs(specs: list[str]) -> dict[str, list[int]]:
    runs = {}
    for spec in specs:
        workload, _, seeds = spec.partition("=")
        lo, _, hi = seeds.partition("-")
        runs[workload] = list(range(int(lo), int(hi or lo) + 1))
    return runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--name", required=True, help="suffix of the output file BENCH_<name>.json")
    parser.add_argument("--scratch", required=True, type=Path, help="directory for the two trees")
    parser.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    parser.add_argument("--head", help="head revision (default: the working tree)")
    parser.add_argument("--runs", nargs="+", required=True, metavar="WORKLOAD=LO-HI")
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace-seed", type=int, help="also run one traced round per workload")
    parser.add_argument("-o", "--output", type=Path, help="default: BENCH_<name>.json at the repo root")
    args = parser.parse_args()

    trees = {"base": args.scratch / "base", "head": args.scratch / "head"}
    sides = {"base": export(args.base, trees["base"]), "head": export(args.head, trees["head"])}
    for side, tree in trees.items():
        sides[side]["src_lines"] = source_lines(tree)
    out = {
        "name": args.name,
        "sides": sides,
        "machine": {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "machine": platform.machine()},
        "settings": {"seconds": args.seconds, "runs": args.runs, "order": "base first on even pairs"},
        "runs": [], "pairs": {}, "summary": {}, "digests": {}, "traced": {},
    }
    for workload, seeds in parse_runs(args.runs).items():
        pairs = []
        for i, seed in enumerate(seeds):
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            got = {}
            for side in order:
                got[side] = perfbench(trees[side], workload, seed, args.seconds, 0)
                out["runs"].append({"workload": workload, "seed": seed, "side": side, **got[side]})
                out["digests"].setdefault(workload, {}).setdefault(str(seed), {})[side] = \
                    got[side]["record"]["inputs"]["digest"]
            metrics = {side: {m: got[side]["result"]["metrics"][m]["value"] for m in METRICS} for side in got}
            pairs.append({
                "seed": seed, "order": order, **metrics,
                "failed": {side: got[side]["result"]["failed"] for side in got},
                "ratio": {m: metrics["head"][m] / metrics["base"][m] if metrics["base"][m] else None
                          for m in METRICS},
            })
            print(f"{workload} seed {seed}: " + " ".join(
                f"{m} {metrics['base'][m]:.4g}->{metrics['head'][m]:.4g}" for m in METRICS), flush=True)
        out["pairs"][workload] = pairs
        out["summary"][workload] = summarize(pairs)
        if args.trace_seed is not None:
            out["traced"][workload] = {
                side: {
                    "seed": args.trace_seed,
                    "metrics": perfbench(trees[side], workload, args.trace_seed, args.seconds, 1)["result"],
                    "top_self_s": top_self_times(trees[side], workload, args.trace_seed),
                }
                for side in trees
            }
    out["floor"] = process_floor(trees)
    target = args.output or ROOT / f"BENCH_{args.name}.json"
    target.write_text(json.dumps(out, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
