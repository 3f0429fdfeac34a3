"""Golden outputs: the README's CLI commands on the packaged data.

Each step runs in-process and pins its exit code, the sha256 of its
stdout and the sha256 of every file it writes.  The digests turn
"bit-reproducible" into a check: a refactor or optimization that keeps
them has changed no output byte.  Steps run in order in one directory,
because later ones read earlier outputs (the review file, the task
instances, the annotated corpus).
"""

import contextlib
import hashlib
import io
import json

import pytest

from dimkit.cli import main

STEPS = (
    ("convert", ["convert", "2.06", "meter", "centimeter"], ()),
    ("link-dyne", ["link", "dyne/cm"], ()),
    ("link-context", ["link", "degree", "--context", "eyeglass prescription"], ()),
    ("dim", ["dim", "Joule * Meter"], ()),
    ("gen-tasks", ["gen-tasks", "all", "-n", "100", "--seed", "7", "-o", "tasks.jsonl"],
     ("tasks.jsonl",)),
    ("gen-tasks-stdout", ["gen-tasks", "unit_conversion", "-n", "50", "--seed", "2"], ()),
    ("annotate-review", ["annotate", "{data}/corpus_sample.txt", "-o", "annotated.jsonl",
                         "--review", "review.tsv"], ("annotated.jsonl", "review.tsv")),
    ("annotate-apply", ["annotate", "{data}/corpus_sample.txt", "--apply-review", "review.tsv",
                        "-o", "reviewed.jsonl"], ("reviewed.jsonl",)),
    ("bootstrap", ["bootstrap", "{data}/triplets.tsv", "--tau", "0.8", "--iters", "5",
                   "-o", "retrieved.json"], ("retrieved.json",)),
    ("augment", ["augment", "{data}/mwp_sample.jsonl", "--eta", "0.5", "--seed", "3",
                 "-o", "augmented.jsonl", "--records", "records.jsonl"],
     ("augmented.jsonl", "records.jsonl")),
    ("augment-append", ["augment", "{data}/mwp_sample.jsonl", "--eta", "1.0", "--append",
                        "-o", "appended.jsonl", "--records", "appended-records.jsonl"],
     ("appended.jsonl", "appended-records.jsonl")),
    ("score-tasks", ["score", "tasks.jsonl", "predictions.jsonl"], ()),
    ("score-extraction", ["score", "annotated.jsonl", "reviewed.jsonl"], ()),
)

GOLDEN = {
    "convert": {
        "exit": 0,
        "stdout": "d24fd918440a5069bd1038294fbfa5c6bedd1ddb6c646fc090945ec6a0606eae",
        "files": {},
    },
    "link-dyne": {
        "exit": 0,
        "stdout": "d55e2cb10a981bd9b1adf039c375ea996b8eb2a0acd5e15af7377196c4f6a1f9",
        "files": {},
    },
    "link-context": {
        "exit": 0,
        "stdout": "198bb7318c5864eb1abc0bf1c0a3e2afe277d0a2ec94b27dddda0b22ba556324",
        "files": {},
    },
    "dim": {
        "exit": 0,
        "stdout": "b97cd41ae422ce2d7f685e06a285851274399b57bac8e61a7c95766512a70c0f",
        "files": {},
    },
    "gen-tasks": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "tasks.jsonl": "5acbf0f637e850987d22c4d896e90863b5ebfb792c28ba0c99c505f294ee1691",
        },
    },
    "gen-tasks-stdout": {
        "exit": 0,
        "stdout": "5cf433d286bc416d159be51d98bf60d8fbcd563477416dfc734aaab1f62133de",
        "files": {},
    },
    "annotate-review": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "annotated.jsonl": "0572b38a436262fa4733bb4716a3a2abe11dd67f60a21bab61fd64b959216203",
            "review.tsv": "a4d172ea068ccbe8631ecd92a6bf739945cd19b7dffed14468bc813c09db26cc",
        },
    },
    "annotate-apply": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "reviewed.jsonl": "d9d34d0df97e4195e5d5897005be2e3d4fddb8124fdb9035214d85de6f3b15ae",
        },
    },
    "bootstrap": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "retrieved.json": "e75e9e9382f66ad6f0cc07dc8871a12be3447e1ffcae29063c32d61febbd2eef",
        },
    },
    "augment": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "augmented.jsonl": "b6ac66672a31ca701c2dd57f53a83a721251554b811233ef8011af97b097dbe6",
            "records.jsonl": "3927b0bc4e5b03761b81a92bb79f0c96bb058a36ee1c21072c6d3ba73451a029",
        },
    },
    "augment-append": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "appended.jsonl": "0ef3d1c7bfbd7189363510e924744c324836a5e841691836837abc0c2be5ea10",
            "appended-records.jsonl": "7f0c3a84d7c021dc578d666bcf29c8615e1379ed01bbefd0d59d96e4bf5bcfea",
        },
    },
    "score-tasks": {
        "exit": 0,
        "stdout": "cd5f79bf97be74525f60058264323185b9c8f72651e5d1a3fc23da2880cf51a9",
        "files": {},
    },
    "score-extraction": {
        "exit": 0,
        "stdout": "cc605ca74f49e7a511aa8367bbc64541d87eecc12e7c291711bbf66802fef4ca",
        "files": {},
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_predictions(workdir):
    """Deterministic predictions for the task instances: correct on
    every third, abstain on every fifth, wrong otherwise."""
    rows = [json.loads(line) for line in (workdir / "tasks.jsonl").read_text(encoding="utf-8").splitlines()]
    lines = []
    for i, r in enumerate(rows):
        if i % 5 == 0:
            answer = None
        elif i % 3 == 0:
            answer = r["answer_index"]
        else:
            answer = (r["answer_index"] + 1) % len(r["candidates"])
        lines.append(json.dumps({"id": r["id"], "answer": answer}))
    (workdir / "predictions.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def results(tmp_path_factory, data_dir):
    workdir = tmp_path_factory.mktemp("golden")
    mp = pytest.MonkeyPatch()
    mp.delenv("DIMKIT_KB", raising=False)
    mp.chdir(workdir)
    out = {}
    try:
        for name, argv, files in STEPS:
            if name == "score-tasks":
                _write_predictions(workdir)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main([a.format(data=data_dir) for a in argv])
            out[name] = {
                "exit": code,
                "stdout": _sha(stdout.getvalue().encode("utf-8")),
                "files": {f: _sha((workdir / f).read_bytes()) for f in files},
            }
    finally:
        mp.undo()
    return out


@pytest.mark.parametrize("name", [s[0] for s in STEPS])
def test_golden_output(results, name):
    assert results[name] == GOLDEN[name]
