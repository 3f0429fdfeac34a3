"""The process entry: ``python -m dimkit.cli`` in fresh interpreters.

The entry runs main(), flushes stdout and stderr, and leaves with
os._exit, skipping the interpreter's teardown; a profiler or tracer gets
the normal exit.  These checks run real processes and compare what they
print, write and return with in-process main().
"""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dimkit
from dimkit.cli import main
from dimkit.embeddings import tokenize
from dimkit.kb import load_kb

SRC = str(Path(dimkit.__file__).resolve().parents[1])


def child_env(**settings):
    """This checkout's sources on the path, without the caller's PYTHON*
    settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    return {**env, "PYTHONPATH": SRC, **settings}


def cli_process(argv, cwd, python=sys.executable, **settings):
    """``python -m dimkit.cli argv``, its output captured."""
    return subprocess.run(
        [python, "-m", "dimkit.cli", *argv], cwd=cwd, env=child_env(**settings),
        capture_output=True, timeout=120,
    )


def in_process(argv):
    """main(argv): its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_piped_stdout_equals_the_output_file(tmp_path):
    argv = ["gen-tasks", "kind_match", "-n", "50", "--seed", "3"]
    piped = cli_process(argv, tmp_path)
    written = cli_process([*argv, "-o", "tasks.jsonl"], tmp_path)
    assert piped.returncode == written.returncode == 0
    assert piped.stdout and piped.stdout == (tmp_path / "tasks.jsonl").read_bytes()
    assert written.stdout == b""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["link", "qqqqzz"], 1),
        (["convert", "1", "poundal", "dyn/cm"], 2),
        (["convert", "1", "zzzzqq", "meter"], 3),
        (["score", "/nonexistent/gold.jsonl", "/nonexistent/p.jsonl"], 4),
        (["convert", "notanumber", "meter", "centimeter"], 64),
        ([], 64),
    ],
)
def test_exit_codes_and_reports_equal_main(tmp_path, argv, code):
    proc = cli_process(argv, tmp_path)
    got, out, err = in_process(argv)
    assert proc.returncode == got == code
    assert proc.stdout.decode() == out
    # the last stderr line is the error report (usage lines wrap to the terminal)
    assert proc.stderr.decode().splitlines()[-1:] == err.splitlines()[-1:]


def test_closed_stdout_exits_with_the_command_code(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "dimkit.cli", "convert", "1", "meter", "centimeter"],
        cwd=tmp_path, env=child_env(), stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_every_skip_line_arrives(tmp_path):
    # problems without units: every question method fails, and the skip
    # lines fill more than a pipe buffer
    rows = [
        {"id": f"p{i:04d}", "body": f"Tom has {i % 7 + 2} apples and finds 3 more. ",
         "question": "How many apples now?", "equation": f"{i % 7 + 2}+3", "answer": i % 7 + 5}
        for i in range(1500)
    ]
    dataset = tmp_path / "problems.jsonl"
    dataset.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    argv = ["augment", str(dataset), "--eta", "1.0", "--seed", "0", "-o", str(tmp_path / "out.jsonl")]
    proc = cli_process(argv, tmp_path)
    code, _, err = in_process(argv)
    lines = proc.stderr.decode().splitlines()
    assert proc.returncode == code == 0
    assert len(lines) > 500 and all(line.startswith("skip p") for line in lines)
    assert len(proc.stderr) > 65536
    assert lines == err.splitlines()


def test_profiler_gets_the_normal_exit(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "dimkit.cli", "convert", "1", "meter", "centimeter"],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "100 centimeter"
    assert any("function calls" in line for line in lines)
    assert any(line.split()[:2] == ["ncalls", "tottime"] for line in lines)


# Seeded commands on the packaged data, with the files each writes.
SEEDED = {
    "gen-tasks": (["gen-tasks", "all", "-n", "40", "--seed", "7", "-o", "tasks.jsonl"], ["tasks.jsonl"]),
    "annotate": (["annotate", "{data}/corpus_sample.txt", "-o", "annotated.jsonl", "--review", "review.tsv"],
                 ["annotated.jsonl", "review.tsv"]),
    "augment": (["augment", "{data}/mwp_sample.jsonl", "--eta", "1.0", "--seed", "5", "-o", "augmented.jsonl",
                 "--records", "records.jsonl"], ["augmented.jsonl", "records.jsonl"]),
    "bootstrap": (["bootstrap", "{data}/triplets.tsv", "-o", "retrieved.json"], ["retrieved.json"]),
}


@pytest.mark.parametrize("command", SEEDED)
def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, data_dir, monkeypatch, command):
    """Seeded commands write the same bytes under any PYTHONHASHSEED, in a
    fresh process or in-process."""
    template, files = SEEDED[command]
    argv = [a.format(data=data_dir) for a in template]
    runs = {}
    for name in ("0", "12345", "main"):
        cwd = tmp_path / name
        cwd.mkdir()
        if name == "main":
            monkeypatch.chdir(cwd)
            code, out, _ = in_process(argv)
            out = out.encode()
        else:
            proc = cli_process(argv, cwd, PYTHONHASHSEED=name)
            code, out = proc.returncode, proc.stdout
        runs[name] = (code, out, [(cwd / f).read_bytes() for f in files])
    assert runs["0"][0] == 0
    assert runs["0"] == runs["12345"] == runs["main"]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# perfbench's round-0 inputs of one seed, written by its own generators
# into the working directory (no bytecode is written under perfbench/)
ROUND0_INPUTS = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from pathlib import Path\n"
    "import inputs, kbfile\n"
    "seed = int(sys.argv[3])\n"
    "units = kbfile.read_kb(Path(sys.argv[2]))\n"
    "inputs.annotate_corpus(seed, 0, units, Path('corpus.txt'))\n"
    "inputs.augment_problems(seed, 0, Path('problems.jsonl'))\n"
    "inputs.triplet_store(seed, 0, units, Path('triplets.tsv'))\n"
    "inputs.write_lines(Path('si_kb.tsv'), inputs.si_expanded_kb(units))\n"
    "inputs.annotated_sentences(seed, 0, kbfile.read_kb(Path('si_kb.tsv')), Path('sentences.jsonl'))\n"
)
# perfbench's inputs.TASK_FAMILIES and inputs.TASKS_PER_FAMILY
TASK_FAMILIES = ("kind_match", "comparable", "dimension_prediction", "dimension_arithmetic",
                 "magnitude_comparison", "unit_conversion")
TASKS_PER_FAMILY = 2000


def round0(seed, kb_path):
    """perfbench's round-0 commands of one seed: per workload, each
    command with the files it writes.  gen-tasks runs on the SI-expanded
    KB."""
    cli_seed = str(seed * 1000)
    return {
        "annotate": [(["--kb", kb_path, "annotate", "corpus.txt", "-o", "annotated.jsonl", "--review", "review.tsv"],
                      ["annotated.jsonl", "review.tsv"])],
        "augment": [(["--kb", kb_path, "augment", "problems.jsonl", "--eta", "1.0", "--seed", cli_seed,
                      "-o", "augmented.jsonl", "--records", "records.jsonl"],
                     ["augmented.jsonl", "records.jsonl"])],
        "gen-tasks": [
            (["--kb", "si_kb.tsv", "gen-tasks", family, "-n", str(TASKS_PER_FAMILY), "--seed", cli_seed,
              *(["--annotated", "sentences.jsonl"] if family == "dimension_prediction" else []),
              "-o", f"tasks-{family}.jsonl"],
             [f"tasks-{family}.jsonl"])
            for family in TASK_FAMILIES
        ],
        "bootstrap": [(["--kb", kb_path, "bootstrap", "triplets.tsv", "-o", "retrieved.json"], ["retrieved.json"])],
    }


def round0_digest(seed, command, cwd, kb_path, python=sys.executable, options=(), **settings):
    """Run one workload's round-0 commands as perfbench does (with any
    global options added) and fingerprint them as digests.json records
    them: per command, the exit code and each output's sha256."""
    digest = []
    for argv, files in round0(seed, str(kb_path))[command]:
        proc = cli_process([*options, *argv], cwd, python, **settings)
        outputs = [cwd / f for f in files]
        digest.append([proc.returncode, [hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else None
                                         for p in outputs]])
        for p in outputs:
            p.unlink(missing_ok=True)
    return digest


def write_round0_inputs(seed, cwd, kb_path):
    subprocess.run(
        [sys.executable, "-B", "-c", ROUND0_INPUTS, str(PERFBENCH), str(kb_path), str(seed)],
        cwd=cwd, check=True, timeout=120,
    )


@pytest.mark.parametrize("seed", range(4))
def test_round0_bytes_match_the_recorded_digests(tmp_path, data_dir, seed):
    """Every workload writes perfbench's recorded round-0 bytes: the
    linking shortcuts (exact prefixes, packed passes, shared rows,
    per-token maxima) change no output, and the task generators draw
    over the same index orders."""
    kb_path = data_dir / "units.tsv"
    write_round0_inputs(seed, tmp_path, kb_path)
    recorded = json.loads((PERFBENCH / "digests.json").read_text())
    for command in ("annotate", "augment", "gen-tasks", "bootstrap"):
        assert round0_digest(seed, command, tmp_path, kb_path) == recorded[command][str(seed)], command


def pyenv_pythons(minor):
    """The CPython builds of one minor version under $PYENV_ROOT/versions
    (default ~/.pyenv), called by path: pyenv's shims resolve only the
    versions a project selects."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    return sorted(root.glob(f"versions/{minor}.*/bin/python"))


@pytest.mark.parametrize("minor", ["3.10", "3.12", "3.13"])
def test_round0_bytes_do_not_depend_on_the_interpreter(tmp_path, data_dir, minor):
    """Every workload writes perfbench's recorded round-0 bytes of seed 0
    under other CPython versions too.  This pins two
    choices of context scoring: a token's max over the keyword rows it
    meets does not depend on the order they are visited in, and a score
    adds its maxima by an explicit ``total +=`` loop (from 3.12, sum()
    adds floats with compensation, which changes last bits)."""
    pythons = pyenv_pythons(minor)
    if not pythons:
        pytest.skip(f"no CPython {minor} under $PYENV_ROOT/versions")
    kb_path = data_dir / "units.tsv"
    write_round0_inputs(0, tmp_path, kb_path)
    recorded = json.loads((PERFBENCH / "digests.json").read_text())
    for python in pythons:
        for command in ("annotate", "augment", "gen-tasks", "bootstrap"):
            digest = round0_digest(0, command, tmp_path, kb_path, python, PYTHONDONTWRITEBYTECODE="1")
            assert digest == recorded[command]["0"], (str(python), command)


def write_vector_file(cwd, kb_path, dim=300):
    """A seeded word-vector file over the tokens of the round-0 corpus and
    problems in cwd and of the KB's keywords."""
    text = "".join((cwd / f).read_text(encoding="utf-8") for f in ("corpus.txt", "problems.jsonl"))
    keywords = [kw for record in load_kb(kb_path).records.values() for kw in record.keywords]
    tokens = sorted({*tokenize(text), *(t for kw in keywords for t in tokenize(kw))})
    rng = random.Random(0)
    rows = [" ".join([t, *(repr(rng.uniform(-1.0, 1.0)) for _ in range(dim))]) for t in tokens]
    path = cwd / "vectors.txt"
    path.write_text(f"{len(rows)} {dim}\n" + "".join(row + "\n" for row in rows), encoding="utf-8")
    return path


def test_round0_word_vector_bytes_do_not_depend_on_the_interpreter(tmp_path, data_dir):
    """annotate and augment with ``--embedder vectors:`` write the same
    bytes under this interpreter and under every CPython 3.10, 3.12 and
    3.13 present: a word vector's dot product is correctly rounded, so
    the interpreter does not reach its bits."""
    kb_path = data_dir / "units.tsv"
    write_round0_inputs(0, tmp_path, kb_path)
    options = ["--embedder", f"vectors:{write_vector_file(tmp_path, kb_path)}"]
    runs = {"default": (sys.executable, {})}
    for minor in ("3.10", "3.12", "3.13"):
        runs.update({str(python): (python, {"PYTHONDONTWRITEBYTECODE": "1"}) for python in pyenv_pythons(minor)})
    for command in ("annotate", "augment"):
        digests = {
            name: round0_digest(0, command, tmp_path, kb_path, python, options, **settings)
            for name, (python, settings) in runs.items()
        }
        want = digests["default"]
        assert want[0][0] == 0, command
        assert {name: d for name, d in digests.items() if d != want} == {}, command
