import json
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dimkit
from dimkit.bootstrap import BootstrapResult, Triplet
from dimkit.cli import _bootstrap_json, _resolve_unit, main
from dimkit.errors import UnitResolutionError
from dimkit.kb import lookup_surface
from dimkit.linking import link
from dimkit.mwp import evaluate_equation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConvert:
    def test_meter_to_centimeter(self, capsys):
        code, out, _ = run(capsys, "convert", "2.06", "meter", "centimeter")
        assert code == 0
        assert out.strip() == "206 centimeter"

    def test_identity(self, capsys):
        code, out, _ = run(capsys, "convert", "1", "meter", "meter")
        assert code == 0
        assert out.strip() == "1 meter"

    def test_zero_stays_zero(self, capsys):
        code, out, _ = run(capsys, "convert", "0", "meter", "centimeter")
        assert code == 0
        assert out.strip() == "0 centimeter"

    def test_unit_trap_exits_2_with_dimensions(self, capsys):
        code, out, _ = run(capsys, "convert", "1", "poundal", "dyn/cm")
        assert code == 2
        assert out.strip() == "LMT^-2 vs MT^-2"

    def test_unresolvable_exits_3(self, capsys):
        code, _, err = run(capsys, "convert", "1", "zzzzqq", "meter")
        assert code == 3

    def test_chinese_surfaces(self, capsys):
        code, out, _ = run(capsys, "convert", "150", "千克", "克")
        assert code == 0
        assert out.strip() == "150000 克"


class TestLink:
    def test_dyne_cm_top_row(self, capsys):
        code, out, _ = run(capsys, "link", "dyne/cm")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split("\t") == ["unit_id", "prior", "p_mention", "p_context", "score"]
        assert lines[1].startswith("DYN-PER-CentiM\t")

    def test_context_flips_top1(self, capsys):
        _, out_lens, _ = run(capsys, "link", "degree", "--context", "eyeglass prescription")
        _, out_water, _ = run(capsys, "link", "degree", "--context", "water boiled")
        assert out_lens.splitlines()[1].startswith("DIOPTER")
        assert out_water.splitlines()[1].startswith("DEG_C")

    def test_empty_result_exits_1(self, capsys):
        code, out, err = run(capsys, "link", "zzzz")
        assert code == 1
        assert out == ""

    def test_top_k(self, capsys):
        code, out, _ = run(capsys, "link", "degree", "--top-k", "1")
        assert len(out.strip().splitlines()) == 2  # header + one row


class TestDim:
    def test_joule_times_meter(self, capsys):
        code, out, _ = run(capsys, "dim", "Joule * Meter")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "L^3MT^-2"
        assert "J-M" in lines[1]

    def test_division(self, capsys):
        code, out, _ = run(capsys, "dim", "meter / second")
        assert out.splitlines()[0] == "LT^-1"

    def test_dimensionless(self, capsys):
        code, out, _ = run(capsys, "dim", "meter / meter")
        assert out.splitlines()[0] == "D"
        assert "ONE" in out.splitlines()[1]

    def test_unresolvable_term(self, capsys):
        code, _, err = run(capsys, "dim", "meter * zzzzqq")
        assert code == 3


class TestGenTasks:
    def test_deterministic_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            code, _, _ = run(capsys, "gen-tasks", "all", "-n", "5", "--seed", "7", "-o", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        rows = [json.loads(line) for line in a.read_text(encoding="utf-8").splitlines()]
        assert len(rows) == 30
        assert len({r["task_type"] for r in rows}) == 6

    def test_different_seed_differs(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(capsys, "gen-tasks", "kind_match", "-n", "5", "--seed", "1", "-o", str(a))
        run(capsys, "gen-tasks", "kind_match", "-n", "5", "--seed", "2", "-o", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_instances_verify(self, capsys, tmp_path, kb):
        from dimkit.tasks import TaskInstance, verify_instance
        from dimkit.util import read_records

        path = tmp_path / "t.jsonl"
        run(capsys, "gen-tasks", "all", "-n", "3", "--seed", "3", "-o", str(path))
        for inst in read_records(path, TaskInstance.from_dict):
            verify_instance(kb, inst)


    @pytest.mark.parametrize("size", [["-m", "1"], ["-n", "-1"]])
    def test_degenerate_sizes_exit_5_and_write_nothing(self, capsys, tmp_path, size):
        out = tmp_path / "t.jsonl"
        code, stdout, _ = run(capsys, "gen-tasks", "kind_match", "-n", "2", *size, "-o", str(out))
        assert code == 5
        assert stdout == "" and not out.exists()


class TestNoOutputOnFailure:
    def test_augment_missing_records_dir(self, capsys, tmp_path, data_dir):
        out = tmp_path / "out.jsonl"
        code, _, err = run(
            capsys, "augment", str(data_dir / "mwp_sample.jsonl"),
            "-o", str(out), "--records", str(tmp_path / "missing" / "dir" / "r.jsonl"),
        )
        assert code == 4
        assert "r.jsonl" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("to_file", [True, False])
    def test_annotate_missing_review_dir(self, capsys, tmp_path, data_dir, to_file):
        output = ["-o", str(tmp_path / "ann.jsonl")] if to_file else []
        code, stdout, _ = run(
            capsys, "annotate", str(data_dir / "corpus_sample.txt"),
            *output, "--review", str(tmp_path / "missing" / "x.tsv"),
        )
        assert code == 4
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_annotate_review_is_directory(self, capsys, tmp_path, data_dir):
        (tmp_path / "rev").mkdir()
        code, stdout, _ = run(
            capsys, "annotate", str(data_dir / "corpus_sample.txt"),
            "-o", str(tmp_path / "ann.jsonl"), "--review", str(tmp_path / "rev"),
        )
        assert code == 4
        assert stdout == ""
        assert [p.name for p in tmp_path.iterdir()] == ["rev"]
        assert list((tmp_path / "rev").iterdir()) == []

    @pytest.mark.parametrize("command", ["/nonexistent/predictor", "no-such-predictor-on-path --flag"])
    def test_annotate_oracle_that_cannot_start(self, capsys, tmp_path, data_dir, command):
        code, stdout, err = run(
            capsys, "annotate", str(data_dir / "corpus_sample.txt"), "--oracle", f"command:{command}",
            "-o", str(tmp_path / "ann.jsonl"), "--review", str(tmp_path / "rev.tsv"),
        )
        assert code == 4
        assert stdout == ""
        assert "oracle command" in err
        assert list(tmp_path.iterdir()) == []

    def test_annotate_with_non_finite_vectors(self, capsys, tmp_path):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("3 2\nlength nan 1.0\nmeter 0.5 0.5\nthe inf 0\n", encoding="utf-8")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("The length is 5 m here.\n", encoding="utf-8")
        code, stdout, err = run(
            capsys, "--embedder", f"vectors:{vectors}", "annotate", str(corpus),
            "-o", str(tmp_path / "ann.jsonl"), "--review", str(tmp_path / "rev.tsv"),
        )
        assert code == 4
        assert stdout == ""
        assert f"{vectors}: line 2: " in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt", "vectors.txt"]

    @pytest.mark.parametrize("command", ["link", "annotate"])
    def test_vector_whose_squared_norm_overflows(self, capsys, tmp_path, command):
        """Finite values whose squared norm overflows fail to load, with no
        warning: a nan score would be written as NaN, which is not JSON.  So
        do nonzero values whose squared norm underflows to 0: the token
        would score as the zero vector, 0 even against itself."""
        vectors = tmp_path / "vectors.txt"
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("The length is 5 meter here.\n", encoding="utf-8")
        argv = {
            "link": ["link", "meter", "--context", "the length"],
            "annotate": ["annotate", str(corpus), "-o", str(tmp_path / "ann.jsonl"),
                         "--review", str(tmp_path / "rev.tsv")],
        }[command]
        for length in ("1e200 1.0", "1e154 1e154", "1e-170 3e-170"):
            vectors.write_text(f"3 2\nlength {length}\nmeter 0.5 0.5\nthe 1.0 0\n", encoding="utf-8")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, stdout, err = run(capsys, "--embedder", f"vectors:{vectors}", *argv)
            assert code == 4, length
            assert stdout == ""
            assert len(err.splitlines()) == 1 and err.startswith(f"error: {vectors}: line 2: ")
            assert "nan" not in err.lower()
            assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt", "vectors.txt"]

    def test_augment_records_is_directory(self, capsys, tmp_path, data_dir):
        (tmp_path / "rec").mkdir()
        code, _, _ = run(
            capsys, "augment", str(data_dir / "mwp_sample.jsonl"),
            "-o", str(tmp_path / "out.jsonl"), "--records", str(tmp_path / "rec"),
        )
        assert code == 4
        assert [p.name for p in tmp_path.iterdir()] == ["rec"]


class TestOutputTargets:
    GEN = ("gen-tasks", "kind_match", "-n", "3", "--seed", "1")

    def expected(self, capsys):
        code, stdout, _ = run(capsys, *self.GEN)
        assert code == 0
        return stdout

    def test_devnull_stays_a_device(self, capsys):
        code, _, _ = run(capsys, *self.GEN, "-o", os.devnull)
        assert code == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_symlink_written_through(self, capsys, tmp_path):
        (tmp_path / "real.jsonl").write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.jsonl"
        link.symlink_to("real.jsonl")
        code, _, _ = run(capsys, *self.GEN, "-o", str(link))
        assert code == 0
        assert link.is_symlink()
        assert (tmp_path / "real.jsonl").read_text(encoding="utf-8") == self.expected(capsys)

    def test_existing_file_keeps_mode_and_links(self, capsys, tmp_path):
        out, twin = tmp_path / "out.jsonl", tmp_path / "twin.jsonl"
        out.write_text("old\n", encoding="utf-8")
        out.chmod(0o640)
        code, _, _ = run(capsys, *self.GEN, "-o", str(out))
        assert code == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        os.link(out, twin)
        code, _, _ = run(capsys, *self.GEN, "--seed", "2", "-o", str(out))
        assert code == 0
        assert os.path.samefile(out, twin)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl", "twin.jsonl"]

    def test_new_file_mode_follows_umask(self, capsys, tmp_path):
        mask = os.umask(0o027)
        try:
            code, _, _ = run(capsys, *self.GEN, "-o", str(tmp_path / "out.jsonl"))
        finally:
            os.umask(mask)
        assert code == 0
        assert stat.S_IMODE((tmp_path / "out.jsonl").stat().st_mode) == 0o640


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["augment", "{data}/mwp_sample.jsonl", "--eta", "2"],
            ["augment", "{data}/mwp_sample.jsonl", "--methods", "bogus"],
            ["bootstrap", "{data}/triplets.tsv", "--tau", "0"],
            ["bootstrap", "{data}/triplets.tsv", "--iters", "-1"],
            ["bootstrap", "{data}/triplets.tsv", "--seed-units", "0"],
            ["--threshold", "0", "link", "meter"],
            ["--threshold", "1.5", "link", "meter"],
            ["link", ""],
            ["convert", "1", "", "meter"],
            ["--embedder", "vectors:{tmp}/vectors.txt", "link", "degree"],
            ["bootstrap", "{tmp}/triplets.tsv"],
            ["score", "{tmp}/bad.jsonl", "{tmp}/bad.jsonl"],
            ["--threshold", "0", "convert", "1", "meter", "centimeter"],
            ["--threshold", "1.5", "augment", "{data}/mwp_sample.jsonl", "--methods", "question_format"],
            ["link", "meter", "--top-k", "0"],
            ["link", "meter", "--top-k", "-1"],
            ["convert", "nan", "meter", "centimeter"],
            ["convert", "inf", "meter", "centimeter"],
            ["convert", "1e308", "kilometer", "millimeter"],
            ["--kb", "{tmp}/nan.tsv", "convert", "1", "meter", "centimeter"],
            ["--kb", "{tmp}/inf.tsv", "convert", "1", "meter", "centimeter"],
            ["--kb", "{tmp}/1e309.tsv", "convert", "1", "meter", "centimeter"],
            ["--kb", "{tmp}/wide.tsv", "convert", "1", "kilometer", "millimeter"],
            ["--kb", "{tmp}/wide.tsv", "gen-tasks", "unit_conversion", "-n", "2000"],
            ["convert", "5e-324", "millimeter", "kilometer"],
            ["augment", "{data}/mwp_sample.jsonl", "--methods", ","],
            ["augment", "{data}/mwp_sample.jsonl", "--methods", ""],
            ["augment", "{tmp}/deep.jsonl"],
            ["augment", "{tmp}/nan_equation.jsonl"],
            ["augment", "{tmp}/nan_answer.jsonl"],
            ["annotate", "{data}/corpus_sample.txt", "--oracle", "command:'x"],
            ["annotate", "{data}/corpus_sample.txt", "--oracle", "command:"],
            ["annotate", "{data}/corpus_sample.txt", "--oracle", "command: \t"],
            # commands that build no embedder still reject a malformed spec
            ["--embedder", "bogus", "convert", "1", "meter", "centimeter"],
            ["--embedder", "bogus", "dim", "kg / m"],
            ["--embedder", "bogus", "gen-tasks", "kind_match", "-n", "5"],
            ["--embedder", "bogus", "bootstrap", "{data}/triplets.tsv"],
        ],
    )
    def test_exit_4_without_traceback(self, capsys, tmp_path, data_dir, argv):
        (tmp_path / "vectors.txt").write_text("1 3\nwater 1.0 x 0.0\n", encoding="utf-8")
        (tmp_path / "triplets.tsv").write_text("a\tb\n", encoding="utf-8")
        (tmp_path / "bad.jsonl").write_text('{"id": "a"}\n{"id": 1\n', encoding="utf-8")
        problem = (
            '{{"id": "p", "body": "A 3 kg bag.", "question": "How many kg?", '
            '"equation": "{}", "answer": {}}}\n'
        )
        for name, equation, answer in [
            ("deep", "(" * 400 + "3" + ")" * 400, 3),
            ("nan_equation", "9" * 400 + "*0", 7),
            ("nan_answer", "3", "NaN"),
        ]:
            (tmp_path / f"{name}.jsonl").write_text(problem.format(equation, answer), encoding="utf-8")
        # KB copies with conversion values a float cannot carry through a
        # conversion: non-finite ones, and a finite pair whose ratio overflows
        kb_lines = (data_dir / "units.tsv").read_text(encoding="utf-8").splitlines()
        variants = {
            "nan.tsv": {"CentiM": "nan"},
            "inf.tsv": {"CentiM": "inf"},
            "1e309.tsv": {"CentiM": "1e309"},
            "wide.tsv": {"KiloM": "1e200", "MilliM": "1e-200"},
        }
        for name, values in variants.items():
            rows = [line.split("\t") for line in kb_lines]
            for cols in rows:
                cols[10] = values.get(cols[0], cols[10])
            (tmp_path / name).write_text("".join("\t".join(c) + "\n" for c in rows), encoding="utf-8")
        code, out, err = run(capsys, *[a.format(data=data_dir, tmp=tmp_path) for a in argv])
        assert code == 4
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv,bad_file,line,field",
        [
            (["score", "gold_no_id.jsonl", "preds.jsonl"], "gold_no_id.jsonl", 1, "'id'"),
            (["score", "gold.jsonl", "preds_no_id.jsonl"], "preds_no_id.jsonl", 2, "'id'"),
            (["augment", "problem_no_question.jsonl"], "problem_no_question.jsonl", 1, "'question'"),
            (["augment", "problem_bad_answer.jsonl"], "problem_bad_answer.jsonl", 1, "'answer'"),
            (["augment", "problem_list.jsonl"], "problem_list.jsonl", 1, "JSON object"),
            (
                ["gen-tasks", "dimension_prediction", "--annotated", "annotated_no_text.jsonl"],
                "annotated_no_text.jsonl", 1, "'text'",
            ),
            (
                ["annotate", "{data}/corpus_sample.txt", "--apply-review", "review.tsv"],
                "review.tsv", 2, "START-END",
            ),
            (["--kb", "kb_short.tsv", "convert", "1", "x", "x"], "kb_short.tsv", 1, "got 7"),
            (
                ["--kb", "kb_bad_frequency.tsv", "convert", "1", "x", "x"],
                "kb_bad_frequency.tsv", 3, "'abc'",
            ),
            (["bootstrap", "triplets_short.tsv"], "triplets_short.tsv", 2, "3 fields"),
        ],
    )
    def test_bad_record_names_file_line_and_field(
        self, capsys, tmp_path, data_dir, monkeypatch, argv, bad_file, line, field
    ):
        task = {"id": "t", "task_type": "kind_match", "prompt": {}, "candidates": ["a", "b"],
                "answer_index": 0}
        problem = {"id": "p", "body": "b", "question": "q", "equation": "1", "answer": 1.0}
        files = {
            "gold_no_id.jsonl": [{"task_type": "kind_match"}],
            "gold.jsonl": [task],
            "preds.jsonl": [{"id": "t", "answer": 0}],
            "preds_no_id.jsonl": [{"id": "t", "answer": 0}, {"answer": 1}],
            "problem_no_question.jsonl": [{k: v for k, v in problem.items() if k != "question"}],
            "problem_bad_answer.jsonl": [{**problem, "answer": "many"}],
            "problem_list.jsonl": [list(problem)],
            "annotated_no_text.jsonl": [{"mentions": []}],
        }
        for name, rows in files.items():
            (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        kb_row = "X\t\tx\t\t\t\tk\t{}\tLength\tA0E0L1I0M0H0T0D0\t1\n"
        tsv = {
            "review.tsv": "1\t0-3\tabc\tkept:numeric\n1\t0-3\n",
            "kb_short.tsv": "X\t\tx\t\t\t\tk\n",
            "kb_bad_frequency.tsv": kb_row.format("0.5") + "\n" + kb_row.format("abc"),
            "triplets_short.tsv": "a\tb\tc\na\tb\n",
        }
        for name, text in tsv.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *[a.format(data=data_dir) for a in argv])
        assert code == 4
        assert err.startswith(f"error: {bad_file}: line {line}: ")
        assert field in err

    @pytest.mark.parametrize(
        "argv,bad_file,field",
        [
            (["augment", "body.jsonl", "--methods", "context_format"], "body.jsonl", "'body'"),
            (["augment", "question.jsonl", "--methods", "question_format"], "question.jsonl", "'question'"),
            (["augment", "equation.jsonl"], "equation.jsonl", "'equation'"),
            (["augment", "parens.jsonl"], "parens.jsonl", "equation does not evaluate"),
            (["augment", "disagrees.jsonl"], "disagrees.jsonl", "answer is 4.0"),
            (["gen-tasks", "dimension_prediction", "--annotated", "text.jsonl"], "text.jsonl", "'text'"),
            (
                ["gen-tasks", "dimension_prediction", "--annotated", "linked_unit.jsonl"],
                "linked_unit.jsonl", "'linked_unit'",
            ),
            (["score", "gold.jsonl", "pred_id.jsonl"], "pred_id.jsonl", "'id'"),
            (["score", "gold.jsonl", "pred_answer.jsonl"], "pred_answer.jsonl", "'answer'"),
            (["score", "gold_id.jsonl", "preds.jsonl"], "gold_id.jsonl", "'id'"),
            (["score", "sentences.jsonl", "value_span.jsonl"], "value_span.jsonl", "'value_span'"),
            (["score", "gold.jsonl", "pred_float.jsonl"], "pred_float.jsonl", "'answer'"),
            (["score", "gold.jsonl", "pred_bool.jsonl"], "pred_bool.jsonl", "'answer'"),
            (["score", "gold_index.jsonl", "preds.jsonl"], "gold_index.jsonl", "'answer_index'"),
            (["score", "gold_seed.jsonl", "preds.jsonl"], "gold_seed.jsonl", "'seed'"),
            (["augment", "answer.jsonl"], "answer.jsonl", "'answer'"),
            (["augment", "answer_bool.jsonl"], "answer_bool.jsonl", "'answer'"),
            (["augment", "answer_huge.jsonl"], "answer_huge.jsonl", "'answer'"),
            (["augment", "id.jsonl"], "id.jsonl", "'id'"),
            (["gen-tasks", "dimension_prediction", "--annotated", "line_no.jsonl"], "line_no.jsonl", "'line_no'"),
            (["gen-tasks", "dimension_prediction", "--annotated", "value.jsonl"], "value.jsonl", "'value'"),
            (
                ["gen-tasks", "dimension_prediction", "--annotated", "link_score.jsonl"],
                "link_score.jsonl", "'link_score'",
            ),
        ],
    )
    def test_wrongly_typed_field_exits_4_naming_it(
        self, capsys, tmp_path, monkeypatch, argv, bad_file, field
    ):
        """A JSON value of the wrong type, or a problem whose equation does
        not check, is a data error at load that names the file, the line
        and the field; nothing is written."""
        problem = {"id": "p", "body": "A 3 kg bag.", "question": "How many kg?", "equation": "3",
                   "answer": 3.0}
        mention = {"value_span": [2, 3], "unit_span": [4, 6], "value": 3.0, "unit_surface": "kg",
                   "linked_unit": "KiloGM"}
        sentence = {"line_no": 1, "text": "A 3 kg bag.", "mentions": [mention]}
        task = {"id": "kind_match-00000", "task_type": "kind_match", "prompt": {},
                "candidates": ["a", "b"], "answer_index": 0}
        pred = {"id": "kind_match-00000", "answer": 0}
        files = {
            "body.jsonl": [problem, {**problem, "body": 5}],
            "question.jsonl": [problem, {**problem, "question": ["y"]}],
            "equation.jsonl": [problem, {**problem, "equation": 5}],
            "parens.jsonl": [problem, {**problem, "equation": "(((("}],
            "disagrees.jsonl": [problem, {**problem, "answer": 4.0}],
            "text.jsonl": [sentence, {**sentence, "text": 5}],
            "linked_unit.jsonl": [sentence, {**sentence, "mentions": [{**mention, "linked_unit": ["M"]}]}],
            "gold.jsonl": [task],
            "pred_id.jsonl": [pred, {**pred, "id": ["kind_match-00000"]}],
            "pred_answer.jsonl": [pred, {**pred, "answer": "x"}],
            "gold_id.jsonl": [task, {**task, "id": ["kind_match-00000"]}],
            "preds.jsonl": [pred],
            "sentences.jsonl": [sentence],
            "value_span.jsonl": [sentence, {**sentence, "mentions": [{**mention, "value_span": [0, [1]]}]}],
            "pred_float.jsonl": [pred, {**pred, "answer": 0.9}],
            "pred_bool.jsonl": [pred, {**pred, "answer": True}],
            "gold_index.jsonl": [task, {**task, "answer_index": 0.5}],
            "gold_seed.jsonl": [task, {**task, "seed": "1"}],
            "answer.jsonl": [problem, {**problem, "answer": "3"}],
            "answer_bool.jsonl": [problem, {**problem, "answer": True, "equation": "1"}],
            "answer_huge.jsonl": [problem, {**problem, "answer": 10**400}],
            "id.jsonl": [problem, {**problem, "id": 5}],
            "line_no.jsonl": [sentence, {**sentence, "line_no": 1.5}],
            "value.jsonl": [sentence, {**sentence, "mentions": [{**mention, "value": "3"}]}],
            "link_score.jsonl": [sentence, {**sentence, "mentions": [{**mention, "link_score": True}]}],
        }
        for name, rows in files.items():
            (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        output = [] if argv[0] == "score" else ["-o", "out.jsonl"]
        code, out, err = run(capsys, *argv, *output)
        assert code == 4
        assert out == ""
        assert err.startswith(f"error: {bad_file}: line 2: ") and err.count("\n") == 1
        assert field in err
        assert not (tmp_path / "out.jsonl").exists()

    GEN_TASKS = ["gen-tasks", "dimension_prediction", "-n", "3", "--annotated", "{}"]

    @pytest.mark.parametrize(
        "argv,bad_file,field",
        [
            (GEN_TASKS, "inside_char.jsonl", "'value_span'"),
            (GEN_TASKS, "past_end.jsonl", "'value_span'"),
            (GEN_TASKS, "reversed.jsonl", "'value_span'"),
            (GEN_TASKS, "unit_first.jsonl", "'unit_span'"),
            (GEN_TASKS, "unit_inside.jsonl", "'unit_span'"),
            (["score", "sentences.jsonl", "{}"], "past_end.jsonl", "'value_span'"),
            (["annotate", "corpus.txt", "--apply-review", "{}"], "review.tsv", "verdict 'rejct'"),
            (["score", "{}", "preds.jsonl"], "gold_string.jsonl", "'candidates'"),
            (["score", "{}", "preds.jsonl"], "gold_numbers.jsonl", "'candidates'"),
            (["score", "{}", "preds.jsonl"], "gold_index.jsonl", "'answer_index'"),
            (["score", "{}", "preds.jsonl"], "gold_negative.jsonl", "'answer_index'"),
            (["score", "{}", "preds.jsonl"], "gold_rationale.jsonl", "'rationale'"),
            (["score", "{}", "preds.jsonl"], "gold_prompt.jsonl", "'prompt'"),
        ],
    )
    def test_span_verdict_or_task_field_out_of_its_domain_exits_4(
        self, capsys, tmp_path, monkeypatch, argv, bad_file, field
    ):
        """A span that leaves its sentence, splits a UTF-8 character or
        puts the unit before the value; a review verdict outside the six
        named ones; gold candidates that are not a list of strings, an
        answer_index that indexes none of them, a rationale that is not a
        string, a prompt that is not an object: each is a data error that
        names the file, the line and the field, and nothing is written."""
        mention = {"value_span": [0, 1], "unit_span": [2, 4], "value": 5.0, "unit_surface": "kg",
                   "linked_unit": "KiloGM"}
        sentence = {"line_no": 1, "text": "5 kg", "mentions": [mention]}
        second = {**sentence, "line_no": 2}
        task = {"id": "kind_match-00000", "task_type": "kind_match", "prompt": {},
                "candidates": ["a"], "answer_index": 0}
        task2 = {**task, "id": "kind_match-00001"}
        files = {
            "sentences.jsonl": [sentence],
            "inside_char.jsonl": [sentence, {**second, "text": "米 5 kg", "mentions": [
                {**mention, "value_span": [0, 1], "unit_span": None}]}],
            "past_end.jsonl": [sentence, {**second, "mentions": [{**mention, "value_span": [0, 99]}]}],
            "reversed.jsonl": [sentence, {**second, "mentions": [{**mention, "value_span": [3, 1]}]}],
            "unit_first.jsonl": [sentence, {**second, "mentions": [{**mention, "unit_span": [0, 4]}]}],
            "unit_inside.jsonl": [sentence, {**second, "text": "5 米", "mentions": [
                {**mention, "unit_span": [2, 4], "unit_surface": "米"}]}],
            "preds.jsonl": [{"id": "kind_match-00000", "answer": 0}, {"id": "kind_match-00001", "answer": 5}],
            "gold_string.jsonl": [task, {**task2, "candidates": "ab"}],
            "gold_numbers.jsonl": [task, {**task2, "candidates": [1, 2]}],
            "gold_index.jsonl": [task, {**task2, "answer_index": 5}],
            "gold_negative.jsonl": [task, {**task2, "answer_index": -1}],
            "gold_rationale.jsonl": [task, {**task2, "rationale": 3}],
            "gold_prompt.jsonl": [task, {**task2, "prompt": "x"}],
        }
        for name, rows in files.items():
            (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        (tmp_path / "corpus.txt").write_text("A 5 kg bag.\nA 3 m rope.\n", encoding="utf-8")
        (tmp_path / "review.tsv").write_text("1\t2-6\t5 kg\taccept\n2\t2-5\t3 m\trejct\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        output = [] if argv[0] == "score" else ["-o", "out.jsonl"]
        code, out, err = run(capsys, *[a.format(bad_file) for a in argv], *output)
        assert code == 4
        assert out == ""
        assert err.startswith(f"error: {bad_file}: line 2: ") and err.count("\n") == 1
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["bootstrap", "{bad}", "-o", "{out}"],
            ["annotate", "{bad}", "-o", "{out}"],
            ["--kb", "{bad}", "gen-tasks", "kind_match", "-n", "2", "-o", "{out}"],
            ["augment", "{bad}", "-o", "{out}"],
        ],
    )
    def test_non_utf8_input_exits_4(self, capsys, tmp_path, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"ok line\nbad \xff byte\n")
        out = tmp_path / "out.json"
        code, stdout, err = run(capsys, *[a.format(bad=bad, out=out) for a in argv])
        assert code == 4
        assert err == f"error: {bad}: not UTF-8 at byte 12 (invalid start byte)\n"
        assert stdout == ""
        assert not out.exists()

    def test_unit_without_keywords_exits_4(self, capsys, tmp_path, data_dir):
        kb_file = tmp_path / "units.tsv"
        kb_file.write_text(
            (data_dir / "units.tsv").read_text(encoding="utf-8")
            + "Z\t\tzunit\tzu\t\t\t\t0.5\tZKind\tA0E0L1I0M0H0T0D0\t1\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "--kb", str(kb_file), "convert", "1", "meter", "centimeter")
        assert code == 4
        assert out == ""
        assert "record=Z" in err

    def test_malformed_json_names_file_and_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a"}\n\n{"id": 1\n', encoding="utf-8")
        _, _, err = run(capsys, "score", str(bad), str(bad))
        assert f"{bad}: line 3:" in err


class TestAnnotateAndScore:
    def test_annotate_writes_jsonl_and_review(self, capsys, tmp_path, data_dir):
        out = tmp_path / "annotated.jsonl"
        review = tmp_path / "review.tsv"
        code, _, _ = run(
            capsys, "annotate", str(data_dir / "corpus_sample.txt"),
            "-o", str(out), "--review", str(review),
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert rows and all("mentions" in r for r in rows)
        assert review.exists()

    def test_annotate_apply_review(self, capsys, tmp_path, data_dir):
        out = tmp_path / "annotated.jsonl"
        review = tmp_path / "review.tsv"
        run(capsys, "annotate", str(data_dir / "corpus_sample.txt"),
            "-o", str(out), "--review", str(review))
        out2 = tmp_path / "reviewed.jsonl"
        code, _, _ = run(
            capsys, "annotate", str(data_dir / "corpus_sample.txt"),
            "--apply-review", str(review), "-o", str(out2),
        )
        assert code == 0
        rows = [json.loads(line) for line in out2.read_text(encoding="utf-8").splitlines()]
        assert all(r["provenance"] == "reviewed" for r in rows)

    def test_score_all_correct_choice_fixture(self, capsys, tmp_path):
        gold = tmp_path / "gold.jsonl"
        preds = tmp_path / "preds.jsonl"
        run(capsys, "gen-tasks", "kind_match", "-n", "4", "--seed", "5", "-o", str(gold))
        rows = [json.loads(line) for line in gold.read_text(encoding="utf-8").splitlines()]
        preds.write_text(
            "\n".join(json.dumps({"id": r["id"], "answer": r["answer_index"]}) for r in rows) + "\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "score", str(gold), str(preds))
        assert code == 0
        overall = [line for line in out.splitlines() if line.startswith("overall")][0]
        fields = overall.split("\t")
        assert fields[4] == fields[5] == fields[6] == fields[7] == "1.0000"

    def test_score_extraction_shape(self, capsys, tmp_path, data_dir):
        out = tmp_path / "annotated.jsonl"
        run(capsys, "annotate", str(data_dir / "corpus_sample.txt"), "-o", str(out))
        code, text, _ = run(capsys, "score", str(out), str(out))
        assert code == 0
        assert text.splitlines()[1].startswith("QE\t")


class TestBootstrapAndAugment:
    def test_bootstrap_writes_json(self, capsys, tmp_path, data_dir):
        out = tmp_path / "boot.json"
        code, _, _ = run(
            capsys, "bootstrap", str(data_dir / "triplets.tsv"),
            "--tau", "0.8", "--iters", "1", "-o", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert set(payload) == {"triplets", "predicates", "mentions"}
        assert "height" in payload["predicates"]

    # quotes, backslashes, C0 controls, DEL, U+2028/9 (escaped only under
    # ensure_ascii), CJK and astral characters, besides plain ASCII
    _TEXT = st.text(
        alphabet=st.one_of(
            st.sampled_from('"\\\x00\x1f\x7f\u2028\u2029\t\n\r/'),
            st.characters(codec="utf-8"),
            st.sampled_from("千克米\U0001F600\U00020000"),
        ),
        max_size=6,
    )

    @given(
        st.lists(st.tuples(_TEXT, _TEXT, _TEXT), max_size=4),
        st.frozensets(_TEXT, max_size=4),
        st.frozensets(_TEXT, max_size=4),
    )
    def test_bootstrap_json_matches_json_dumps(self, rows, predicates, mentions):
        result = BootstrapResult(tuple(Triplet(*r) for r in rows), predicates, mentions)
        expected = json.dumps(
            {
                "triplets": [list(r) for r in rows],
                "predicates": sorted(predicates),
                "mentions": sorted(mentions),
            },
            ensure_ascii=False,
            indent=2,
        )
        assert _bootstrap_json(result) == expected

    def test_augment_deterministic(self, capsys, tmp_path, data_dir):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.jsonl"
            rec = tmp_path / f"{name}-records.jsonl"
            code, _, _ = run(
                capsys, "augment", str(data_dir / "mwp_sample.jsonl"),
                "--eta", "0.5", "--seed", "11", "-o", str(out), "--records", str(rec),
            )
            assert code == 0
            outs.append((out.read_bytes(), rec.read_bytes()))
        assert outs[0] == outs[1]

    def test_augment_append_doubles(self, capsys, tmp_path, data_dir):
        out = tmp_path / "x.jsonl"
        run(capsys, "augment", str(data_dir / "mwp_sample.jsonl"),
            "--eta", "1.0", "--seed", "2", "--append", "-o", str(out))
        n_in = len((data_dir / "mwp_sample.jsonl").read_text(encoding="utf-8").splitlines())
        assert len(out.read_text(encoding="utf-8").splitlines()) == 2 * n_in

    @pytest.mark.parametrize(
        "equation,rewritten",
        [
            ("5+.5-.5", "(5000/1000)+.5-.5"),
            ("5.*1", "(5000/1000)*1"),
            ("4 .5+.5", "4 .5+.5"),  # 4.5 + 0.5: no literal 5, the problem is skipped
            ("5 0/10", "5 0/10"),  # 50 / 10
            ("1..2=5", "1..2=(5000/1000)"),  # only the segment after '=' is evaluated
        ],
    )
    def test_augment_rewrites_the_literals_the_equation_reads(self, capsys, tmp_path, equation, rewritten):
        """An equation literal is the run of digits and '.' that
        evaluate_equation reads, whitespace inside the run included."""
        problem = {"id": "p", "body": "A bag holds 5 kg of rice.", "question": " How heavy?",
                   "equation": equation, "answer": 5}
        dataset, out = tmp_path / "p.jsonl", tmp_path / "out.jsonl"
        dataset.write_text(json.dumps(problem) + "\n", encoding="utf-8")
        code, _, _ = run(capsys, "augment", str(dataset), "--methods", "context_dimension",
                         "--eta", "1", "--seed", "0", "-o", str(out))
        assert code == 0
        [row] = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert row["equation"] == rewritten
        assert evaluate_equation(row["equation"]) == row["answer"] == 5


class TestUsageAndEnvironment:
    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["convert", "--help"], ["gen-tasks", "--help"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 0

    def test_usage_error_exits_64(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["convert", "notanumber", "meter", "centimeter"])
        assert err.value.code == 64
        with pytest.raises(SystemExit) as err:
            main(["gen-tasks", "bogus_type"])
        assert err.value.code == 64

    def test_env_var_overrides_kb(self, capsys, tmp_path, monkeypatch):
        stub = tmp_path / "stub.tsv"
        stub.write_text(
            "X\t\txunit\txu\t\t\tthing\t0.5\tLength\tA0E0L1I0M0H0T0D0\t1\n",
            encoding="utf-8",
        )
        monkeypatch.setenv("DIMKIT_KB", str(stub))
        code, out, _ = run(capsys, "link", "xunit")
        assert code == 0
        assert out.splitlines()[1].startswith("X\t")

    def test_kb_flag_beats_env(self, capsys, tmp_path, monkeypatch, data_dir):
        monkeypatch.setenv("DIMKIT_KB", "/nonexistent/kb.tsv")
        code, out, _ = run(capsys, "--kb", str(data_dir / "units.tsv"), "link", "kg")
        assert code == 0

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run(capsys, "score", "/nonexistent/gold.jsonl", "/nonexistent/p.jsonl")
        assert code == 4

    def test_vector_file_embedder(self, capsys, tmp_path):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(
            "2 3\nwater 1.0 0.0 0.0\ntemperature 0.9 0.1 0.0\n", encoding="utf-8"
        )
        code, out, _ = run(
            capsys, "--embedder", f"vectors:{vectors}",
            "link", "degree", "--context", "water temperature",
        )
        assert code == 0
        assert out.splitlines()[1].startswith("DEG_C")

    def test_vector_file_needs_no_numpy(self, capsys, tmp_path, monkeypatch):
        """link and annotate with word vectors write the same bytes whether
        numpy can be imported or not."""
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("3 2\nlength 0.3 0.7\nmeter 0.5 -0.5\nthe 1.0 0\n", encoding="utf-8")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("The length is 5 meter here.\nIt weighs 3 kg.\n", encoding="utf-8")
        embedder = ["--embedder", f"vectors:{vectors}"]
        runs = []
        for name in ("numpy", "no-numpy"):
            if name == "no-numpy":
                monkeypatch.setitem(sys.modules, "numpy", None)  # import numpy raises
            linked = run(capsys, *embedder, "link", "meter", "--context", "the length")
            annotated = tmp_path / f"{name}.jsonl"
            code, _, _ = run(capsys, *embedder, "annotate", str(corpus), "-o", str(annotated))
            runs.append((linked, code, annotated.read_bytes()))
        assert runs[0][0][0] == runs[0][1] == 0
        assert runs[0] == runs[1]

    def test_unknown_embedder_spec(self, capsys):
        code, _, err = run(capsys, "--embedder", "bogus", "link", "kg")
        assert code == 4


class TestStartup:
    @staticmethod
    def main_in_subprocess(argv, tmp_path, data_dir, report):
        """Run main(argv) in a fresh interpreter, then print the exit code
        and the expression report to stderr, which is returned."""
        (tmp_path / "vectors.txt").write_text("1 2\nmeter 0.5 0.5\n", encoding="utf-8")
        argv = [a.format(data=data_dir, tmp=tmp_path) for a in argv]
        script = (
            "import sys\n"
            "from dimkit.cli import main\n"
            "code = main(sys.argv[1:])\n"
            f"print(code, {report}, file=sys.stderr)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(dimkit.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True,
            timeout=60,
        )
        return proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["convert", "1", "meter", "centimeter"],
            ["gen-tasks", "kind_match", "-n", "5"],
            ["--embedder", "vectors:{tmp}/vectors.txt", "gen-tasks", "kind_match", "-n", "5"],
            ["bootstrap", "{data}/triplets.tsv", "-o", "{tmp}/retrieved.json"],
            # convert and dim resolve units without context: no embedder,
            # so the vector file is never read, even when it is missing
            ["--embedder", "vectors:{tmp}/vectors.txt", "convert", "1", "meterr", "cm"],
            ["--embedder", "vectors:{tmp}/missing.txt", "convert", "1", "meter", "centimeter"],
            ["--embedder", "vectors:{tmp}/vectors.txt", "dim", "Joule * meterr"],
            ["--embedder", "vectors:{tmp}/missing.txt", "dim", "kg / m"],
        ],
    )
    def test_command_without_embedding_skips_numpy(self, argv, tmp_path, data_dir):
        report = self.main_in_subprocess(argv, tmp_path, data_dir, "'numpy' in sys.modules")
        assert report == "0 False\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["link", "meter", "--context", "a meter"],
            ["annotate", "{data}/corpus_sample.txt", "-o", "{tmp}/annotated.jsonl"],
            ["augment", "{data}/mwp_sample.jsonl", "--eta", "1.0", "-o", "{tmp}/augmented.jsonl"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_word_vector_commands_skip_numpy(self, argv, tmp_path, data_dir):
        argv = ["--embedder", "vectors:{tmp}/vectors.txt", *argv]
        report = self.main_in_subprocess(argv, tmp_path, data_dir, "'numpy' in sys.modules")
        assert report == "0 False\n"

    # the modules each command must leave unloaded: no command loads
    # numpy, whatever its embedder; a constant oracle
    # runs no command; only gen-tasks and augment draw from a derived RNG
    # (hashlib); only gen-tasks loads the task generators; no command
    # defines a dataclass or loads inspect
    UNUSED = {
        "convert": ["dimkit.tasks", "dimkit.mwp", "dimkit.bootstrap", "dimkit.scoring",
                    "dimkit.quantity_text", "subprocess", "hashlib", "dataclasses", "shlex",
                    "inspect"],
        "gen-tasks": ["dimkit.mwp", "dimkit.bootstrap", "dimkit.scoring", "dimkit.quantity_text",
                      "subprocess", "dataclasses", "shlex", "inspect"],
        "bootstrap": ["dimkit.tasks", "dimkit.mwp", "dimkit.scoring", "dimkit.embeddings", "numpy",
                      "subprocess", "hashlib", "dataclasses", "shlex", "inspect"],
        "annotate": ["dimkit.tasks", "dimkit.mwp", "dimkit.bootstrap", "dimkit.scoring", "numpy",
                     "subprocess", "hashlib", "dataclasses", "shlex", "inspect"],
        "augment": ["dimkit.tasks", "dimkit.bootstrap", "dimkit.scoring", "numpy", "subprocess",
                    "dataclasses", "shlex", "inspect"],
    }

    @pytest.mark.parametrize(
        "argv",
        [
            ["convert", "1", "meter", "centimeter"],
            ["gen-tasks", "kind_match", "-n", "5"],
            ["bootstrap", "{data}/triplets.tsv", "-o", "{tmp}/retrieved.json"],
            ["annotate", "{data}/corpus_sample.txt", "--oracle", "constant:5",
             "-o", "{tmp}/annotated.jsonl"],
            ["augment", "{data}/mwp_sample.jsonl", "--eta", "1.0", "-o", "{tmp}/augmented.jsonl"],
        ],
    )
    def test_command_loads_only_its_modules(self, argv, tmp_path, data_dir):
        unused = self.UNUSED[argv[0]]
        report = self.main_in_subprocess(
            argv, tmp_path, data_dir, f"[m for m in {unused!r} if m in sys.modules]"
        )
        assert report == "0 []\n"


def test_resolve_unit_is_the_top_link(kb, emb):
    """Without context, _resolve_unit picks what link ranks first (or what
    an exact surface names), for every form of every unit and typos of them."""
    surfaces = {f for rec in kb.records.values() for f in rec.surface_forms()}
    surfaces |= {f[:-1] + "x" for f in surfaces if len(f) > 2} | {f + "s" for f in surfaces}
    for threshold in (0.5, 0.8):
        for surface in sorted(surfaces):
            exact = lookup_surface(kb, surface)
            ranked = link(kb, surface, "", emb, threshold)
            if len(exact) == 1:
                expected = next(iter(exact))
            elif ranked:
                expected = ranked[0].unit_id
            else:
                with pytest.raises(UnitResolutionError):
                    _resolve_unit(kb, surface, threshold)
                continue
            assert _resolve_unit(kb, surface, threshold) == expected, surface
