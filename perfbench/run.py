#!/usr/bin/env python3
"""dimkit benchmark: seeded offline workloads run through the real CLI.

    python3 perfbench/run.py --workload annotate --seed 0 --seconds 24 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, nothing is installed.  Generated inputs,
outputs and run records go to ``.perfbench_work/``.

``--trace 0`` runs the workload as a closed loop of fresh CLI processes
(the next command starts when the previous one exits), one round of
inputs after another, until the commands have taken ``--seconds`` of
wall time; it prints the end-to-end metrics.  ``--trace 1`` runs round 0
in-process, once untraced and once traced (see ``incli.py``), and prints
the per-layer metrics.  Both check every output (``checks.py``) and,
for round 0, compare output bytes with the digests recorded in
``digests.json``.  The last stdout line is the JSON result; the lines
before it are a human-readable summary and the run record.

``--record-digests 0-29`` (maintenance) re-records round-0 digests for
those seeds on every workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from incli import FUNCTIONS  # noqa: E402
from kbfile import read_kb  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGED_KB = SRC / "dimkit" / "data" / "units.tsv"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("annotate", "augment", "gen-tasks", "bootstrap")
SETUP_FIRST = 3  # set-up samples before the first round; one more follows each round
COMMAND_TIMEOUT_S = 150
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(THREAD_ENV, PYTHONPATH=str(SRC))
    return env


# ---------------------------------------------------------------------------
# Running commands


@dataclass
class Result:
    exit: int
    wall_s: float
    rss_mb: float
    log_tail: str  # last bytes of the command's stdout and stderr


def _on_alarm(signum, frame):
    raise TimeoutError


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


def run_command(argv: list[str], cwd: Path, log: Path) -> Result:
    """One fresh process, waited for with os.wait4 so its own max-RSS
    is known; killed after COMMAND_TIMEOUT_S, or when this process is
    interrupted, and always reaped."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=err, stderr=subprocess.STDOUT)
        old = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(COMMAND_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                  log.read_text(encoding="utf-8", errors="replace")[-400:])


def dimkit(*args: str) -> list[str]:
    return [sys.executable, "-m", "dimkit.cli", *map(str, args)]


# ---------------------------------------------------------------------------
# Workloads: one round of inputs, its commands, and its checks


@dataclass
class Command:
    args: list[str]
    items: int
    outputs: list[Path]


@dataclass
class Round:
    commands: list[Command]
    check: object  # callable(list[Result]) -> checks.Verdict
    properties: dict = field(default_factory=dict)


def cli_seed(seed: int, round_no: int) -> int:
    return seed * 1000 + round_no


def round_annotate(seed: int, r: int, d: Path, kb_path: Path, units) -> Round:
    corpus = d / "corpus.txt"
    props = inputs.annotate_corpus(seed, r, list(units.values()), corpus)
    out, review = d / "annotated.jsonl", d / "review.tsv"
    cmd = Command(["--kb", kb_path, "annotate", corpus, "-o", out, "--review", review], props["lines"], [out, review])

    def check(results):
        lines = corpus.read_text(encoding="utf-8").splitlines()
        return checks.check_annotate(lines, out.read_text(encoding="utf-8"), review.read_text(encoding="utf-8"), units)

    return Round([cmd], check, props)


def round_augment(seed: int, r: int, d: Path, kb_path: Path, units) -> Round:
    problems = d / "problems.jsonl"
    props = inputs.augment_problems(seed, r, problems)
    out, records = d / "augmented.jsonl", d / "records.jsonl"
    cmd = Command(
        ["--kb", kb_path, "augment", problems, "--eta", "1.0", "--seed", cli_seed(seed, r), "-o", out,
         "--records", records],
        props["problems"],
        [out, records],
    )

    def check(results):
        given = [json.loads(line) for line in problems.read_text(encoding="utf-8").splitlines()]
        return checks.check_augment(given, out.read_text(encoding="utf-8"), records.read_text(encoding="utf-8"), units)

    return Round([cmd], check, props)


def round_gen_tasks(seed: int, r: int, d: Path, kb_path: Path, units) -> Round:
    annotated = d / "annotated.jsonl"
    props = inputs.annotated_sentences(seed, r, list(units.values()), annotated)
    n = inputs.TASKS_PER_FAMILY
    commands = []
    for family in inputs.TASK_FAMILIES:
        extra = ["--annotated", annotated] if family == "dimension_prediction" else []
        out = d / f"tasks-{family}.jsonl"
        commands.append(Command(
            ["--kb", kb_path, "gen-tasks", family, "-n", n, "--seed", cli_seed(seed, r), *extra, "-o", out],
            n,
            [out],
        ))

    def check(results):
        linked = {
            m["linked_unit"]
            for line in annotated.read_text(encoding="utf-8").splitlines()
            for m in json.loads(line)["mentions"]
        }
        verdict = checks.Verdict()
        for family, cmd, res in zip(inputs.TASK_FAMILIES, commands, results):
            if res.exit == 0:
                verdict.add(checks.check_tasks(family, n, cmd.outputs[0].read_text(encoding="utf-8"), units, linked))
        return verdict

    return Round(commands, check, props)


def round_bootstrap(seed: int, r: int, d: Path, kb_path: Path, units) -> Round:
    store = d / "triplets.tsv"
    props = inputs.triplet_store(seed, r, list(units.values()), store)
    out = d / "retrieved.json"
    cmd = Command(["--kb", kb_path, "bootstrap", store, "-o", out], props["triplets"], [out])

    def check(results):
        triplets = [tuple(line.split("\t")) for line in store.read_text(encoding="utf-8").splitlines()]
        return checks.check_bootstrap(triplets, out.read_text(encoding="utf-8"))

    return Round([cmd], check, props)


ROUNDS = {
    "annotate": round_annotate,
    "augment": round_augment,
    "gen-tasks": round_gen_tasks,
    "bootstrap": round_bootstrap,
}


def workload_setup(workload: str, seed: int) -> tuple[Path, dict]:
    """Make the seed's work directory and return the workload's KB path
    and units: the SI-expanded scale KB for gen-tasks, the packaged KB
    otherwise."""
    base = WORK / f"{workload}-{seed}"
    base.mkdir(parents=True, exist_ok=True)
    kb_path = PACKAGED_KB
    if workload == "gen-tasks":
        kb_path = base / "si_kb.tsv"
        inputs.write_lines(kb_path, inputs.si_expanded_kb(read_kb(PACKAGED_KB)))
    return kb_path, {u.unit_id: u for u in read_kb(kb_path)}


# ---------------------------------------------------------------------------
# One round: run, check, account


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    lost: int = 0
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    rounds: int = 0
    reasons: list[str] = field(default_factory=list)
    exits: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.reasons


def account(tally: Tally, rnd: Round, results: list[Result]) -> None:
    """Items of a command that exited non-zero are lost (failed); the
    command must then have written none of its outputs.  Items of
    commands that succeeded go through the workload's checks."""
    tally.rounds += 1
    for cmd, res in zip(rnd.commands, results):
        tally.attempted += cmd.items
        tally.wall_s += res.wall_s
        tally.peak_rss_mb = max(tally.peak_rss_mb, res.rss_mb)
        if res.exit != 0:
            tally.lost += cmd.items
            tally.failed += cmd.items
            last = res.log_tail.strip().splitlines()[-1:] or [""]
            tally.exits.append(f"{' '.join(map(str, cmd.args[2:4]))} exit {res.exit}: {last[0][:160]}")
            if any(p.exists() for p in cmd.outputs):
                tally.reasons.append(f"exit {res.exit} but an output file was written")
    if any(res.exit == 0 for res in results):
        try:
            verdict = rnd.check(results)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            verdict = checks.Verdict()
            verdict.fail(f"output unreadable: {exc!r}", sum(c.items for c, r in zip(rnd.commands, results) if r.exit == 0))
        tally.failed += verdict.failed
        tally.reasons.extend(verdict.reasons)


def output_digest(rnd: Round, results: list[Result]) -> list:
    """Round-0 fingerprint: per command its exit code and the sha256 of
    each output file (null when absent)."""
    out = []
    for cmd, res in zip(rnd.commands, results):
        files = [hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else None for p in cmd.outputs]
        out.append([res.exit, files])
    return out


def compare_digest(tally: Tally, workload: str, seed: int, digest: list) -> str:
    recorded = json.loads(DIGESTS.read_text()).get(workload, {}) if DIGESTS.exists() else {}
    if str(seed) not in recorded:
        return "not recorded for this seed"
    if recorded[str(seed)] != digest:
        tally.reasons.append("round-0 output bytes differ from the recorded digest")
        return "MISMATCH"
    return "match"


def round_dir(workload: str, seed: int, round_no: int) -> Path:
    return WORK / f"{workload}-{seed}" / f"round-{round_no}"


def prepare(workload: str, seed: int, round_no: int, kb_path: Path, units) -> Round:
    d = round_dir(workload, seed, round_no)
    d.mkdir(parents=True, exist_ok=True)
    for stale in d.iterdir():
        stale.unlink()
    return ROUNDS[workload](seed, round_no, d, kb_path, units)


def run_round(rnd: Round, cwd: Path) -> list[Result]:
    return [run_command(dimkit(*cmd.args), cwd, cwd / f"cmd-{i}.log") for i, cmd in enumerate(rnd.commands)]


# ---------------------------------------------------------------------------
# Metrics


def setup_sample(kb_path: Path, cwd: Path) -> float:
    """Wall time of one fresh `convert 1 meter centimeter` on the
    workload's KB: import, KB load and one exact lookup."""
    res = run_command(dimkit("--kb", kb_path, "convert", "1", "meter", "centimeter"), cwd, cwd / "setup.log")
    if res.exit != 0 or res.log_tail.strip() != "100 centimeter":
        raise SystemExit(f"setup command failed (exit {res.exit}): {res.log_tail.strip()[:200]}")
    return res.wall_s


def percentile_ms(durations: list[float], q: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(1, -(-len(ordered) * q // 1))  # nearest-rank
    return ordered[int(rank) - 1] * 1000.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(stats: dict, untraced_s: float, traced_s: float) -> dict:
    fns, counters = stats["functions"], stats["counters"]
    m = {}
    for name, _, _, per_item, _ in FUNCTIONS:
        f = fns[name]
        m[f"{name}.calls"] = (f["calls"], "count")
        m[f"{name}.self_s"] = (f["self_s"], "s")
        if per_item:
            m[f"{name}.p50_ms"] = (percentile_ms(f["durations"], 0.50), "ms")
            m[f"{name}.p99_ms"] = (percentile_ms(f["durations"], 0.99), "ms")
    calls = {name: fns[name]["calls"] for name in fns}
    m["linking.levenshtein.useful_ratio"] = (
        _ratio(counters.get("candidate_generation.admitted_on_miss", 0), calls["linking.levenshtein"]), "ratio")
    m["linking.candidates_per_link"] = (_ratio(counters.get("link.candidates", 0), calls["linking.link"]), "ratio")
    m["linking.context_score.repeat_ratio"] = (
        _ratio(counters.get("context_score.repeats", 0), calls["linking.context_score"]), "ratio")
    m["kb.match_cache.hit_ratio"] = (
        _ratio(counters.get("candidate_generation.cache_hits", 0), calls["linking.candidate_generation"]), "ratio")
    m["kb.match_cache.entries"] = (stats["match_cache_entries"], "count")
    m["kb.units"] = (stats["kb_units"], "count")
    m["embeddings.vector.cache_hit_ratio"] = (
        _ratio(counters.get("vector.cache_hits", 0), calls["embeddings.vector"]), "ratio")
    values = counters.get("extract_quantities.values", 0)
    m["quantity_text.links_per_value"] = (_ratio(counters.get("extract_quantities.links", 0), values), "ratio")
    m["quantity_text.linked_value_ratio"] = (
        _ratio(counters.get("extract_quantities.linked_values", 0), values), "ratio")
    for method in ("context_format", "context_dimension", "question_format", "question_dimension"):
        f = fns[f"mwp.augment_{method}"]
        m[f"mwp.augment_failure_ratio.{method}"] = (_ratio(f["errors"], f["calls"]), "ratio")
    m["tasks.dimension_arithmetic.attempts_per_instance"] = (
        _ratio(stats["edges"].get("tasks.gen_dimension_arithmetic > tasks.expression_dimension", 0),
               counters.get("dimension_arithmetic.instances", 0)), "ratio")
    f = fns["bootstrap.object_contains"]
    m["bootstrap.object_contains.hit_ratio"] = (_ratio(f["truthy"], f["calls"]), "ratio")
    m["trace.untraced_s"] = (untraced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return m


def merge_stats(total: dict | None, part: dict) -> dict:
    if total is None:
        return part
    for name, f in part["functions"].items():
        t = total["functions"][name]
        for key in ("calls", "self_s", "errors", "truthy"):
            t[key] += f[key]
        if f["durations"] is not None:
            t["durations"].extend(f["durations"])
    for key in ("edges", "counters"):
        for name, n in part[key].items():
            total[key][name] = total[key].get(name, 0) + n
    for key in ("kb_units", "match_cache_entries"):
        total[key] = max(total[key], part[key])
    return total


# ---------------------------------------------------------------------------
# Run record


def run_record(workload: str, seed: int, seconds: int, trace: int, properties: dict) -> dict:
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "dimkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    sha = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.split()
        if len(git) == 2 and Path(git[0]).resolve() == ROOT:
            sha = git[1]
    except (OSError, subprocess.SubprocessError):
        pass
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        env=child_env(), capture_output=True, text=True, timeout=60,
    ).stdout.strip()
    return {
        "git_sha": sha,
        "src_sha256": src_digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "thread_env": THREAD_ENV,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs": properties,
    }


# ---------------------------------------------------------------------------
# Modes


def run_e2e(workload: str, seed: int, seconds: int) -> tuple[Tally, dict, dict]:
    kb_path, units = workload_setup(workload, seed)
    # Set-up is sampled before the first round and after every round, so
    # its median spans the whole run; the first sample only compiles
    # bytecode (once per checkout) and is dropped.
    base = WORK / f"{workload}-{seed}"
    setup = [setup_sample(kb_path, base) for _ in range(SETUP_FIRST + 1)][1:]
    tally = Tally()
    properties = {"kb_units": len(units)}
    digest_state = "not checked"
    round_walls = []
    round_no = 0
    while round_no == 0 or tally.wall_s < seconds:
        rnd = prepare(workload, seed, round_no, kb_path, units)
        results = run_round(rnd, round_dir(workload, seed, round_no))
        account(tally, rnd, results)
        round_walls.append(round(sum(res.wall_s for res in results), 4))
        if round_no == 0:
            properties.update(rnd.properties)
            digest_state = compare_digest(tally, workload, seed, output_digest(rnd, results))
        else:  # keep round 0 for inspection; later rounds only cost disk
            shutil.rmtree(round_dir(workload, seed, round_no))
        setup.append(setup_sample(kb_path, base))
        round_no += 1
    passed = tally.attempted - tally.failed
    metrics = {
        "items_per_s": (passed / tally.wall_s, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (tally.peak_rss_mb, "MB"),
    }
    properties["digest"] = digest_state
    properties["round_wall_s"] = round_walls
    properties["setup_sample_s"] = [round(x, 4) for x in setup]
    return tally, metrics, properties


def run_traced(workload: str, seed: int) -> tuple[Tally, dict, dict]:
    """Round 0, each command in a fresh process: once untraced, once
    traced; the traced round's outputs are checked."""
    kb_path, units = workload_setup(workload, seed)
    rnd = prepare(workload, seed, 0, kb_path, units)
    cwd = round_dir(workload, seed, 0)
    untraced_s = traced_s = 0.0
    stats = None
    results = []
    for i, cmd in enumerate(rnd.commands):
        walls = []
        for traced in (False, True):
            stats_path = cwd / f"stats-{i}-{int(traced)}.json"
            argv = [sys.executable, str(HERE / "incli.py"), "--stats", str(stats_path),
                    *(["--trace"] if traced else []), "--", *map(str, cmd.args)]
            res = run_command(argv, cwd, cwd / f"incli-{i}.log")
            if res.exit != 0 or not stats_path.exists():
                raise SystemExit(f"in-process runner failed: {res.log_tail.strip()[-300:]}")
            data = json.loads(stats_path.read_text())
            walls.append(data["wall_s"])
            if traced:
                res.exit = data["exit"]
                results.append(res)
                stats = merge_stats(stats, data)
            else:
                for p in cmd.outputs:
                    p.unlink(missing_ok=True)
        untraced_s += walls[0]
        traced_s += walls[1]
    tally = Tally()
    account(tally, rnd, results)
    properties = dict(rnd.properties, kb_units=len(units))
    properties["digest"] = compare_digest(tally, workload, seed, output_digest(rnd, results))
    return tally, per_layer_metrics(stats, untraced_s, traced_s), properties


def record_digests(spec: str) -> None:
    lo, _, hi = spec.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for workload in WORKLOADS:
        for seed in seeds:
            kb_path, units = workload_setup(workload, seed)
            rnd = prepare(workload, seed, 0, kb_path, units)
            results = run_round(rnd, round_dir(workload, seed, 0))
            tally = Tally()
            account(tally, rnd, results)
            if not tally.correct:
                raise SystemExit(f"{workload} seed {seed}: outputs fail their checks: {tally.reasons}")
            recorded.setdefault(workload, {})[str(seed)] = output_digest(rnd, results)
            print(f"{workload} seed {seed}: recorded ({len(tally.exits)} failed commands)", flush=True)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def check_declared(metrics: dict, trace: int) -> None:
    """The printed metric names must be exactly the ones BENCHMARK.json declares."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return
    declared = {m["name"] for m in json.loads(spec.read_text())["per_layer" if trace else "end_to_end"]}
    if declared != set(metrics):
        raise SystemExit(f"metric names differ from BENCHMARK.json: {sorted(declared ^ set(metrics))}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", metavar="LO-HI")
    args = parser.parse_args()

    if not (SRC / "dimkit" / "cli.py").is_file() or not PACKAGED_KB.is_file():
        print(f"error: no dimkit sources under {SRC}; run from the root of a dimkit checkout", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests(args.record_digests)
        return 0
    if not args.workload:
        parser.error("--workload is required")

    signal.signal(signal.SIGTERM, _on_term)
    started = time.perf_counter()
    if args.trace:
        tally, metrics, properties = run_traced(args.workload, args.seed)
    else:
        tally, metrics, properties = run_e2e(args.workload, args.seed, args.seconds)
    check_declared(metrics, args.trace)

    record = run_record(args.workload, args.seed, args.seconds, args.trace, properties)
    record_path = WORK / f"{args.workload}-{args.seed}" / f"record-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"# record {json.dumps(record, ensure_ascii=False)}")
    failed_ratio = _ratio(tally.failed, tally.attempted)
    shown = " ".join(f"{k}={v:.6g}" for k, (v, _) in metrics.items() if not args.trace)
    print(f"# {args.workload} seed={args.seed} rounds={tally.rounds} attempted={tally.attempted} "
          f"failed={tally.failed} (lost to exits: {tally.lost}) failed_ratio={failed_ratio:.6g} {shown} "
          f"cli_wall_s={tally.wall_s:.3f} run_s={time.perf_counter() - started:.1f}")
    for line in tally.exits[:5]:
        print(f"# non-zero exit: {line}")
    for line in tally.reasons[:5]:
        print(f"# CHECK FAILED: {line}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
