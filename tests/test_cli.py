import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import dimkit
from dimkit.cli import main


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
        from dimkit.tasks import load_instances, verify_instance

        path = tmp_path / "t.jsonl"
        run(capsys, "gen-tasks", "all", "-n", "3", "--seed", "3", "-o", str(path))
        for inst in load_instances(path):
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
            ["--embedder", "vectors:{tmp}/vectors.txt", "link", "degree"],
            ["bootstrap", "{tmp}/triplets.tsv"],
            ["score", "{tmp}/bad.jsonl", "{tmp}/bad.jsonl"],
            ["--threshold", "0", "convert", "1", "meter", "centimeter"],
            ["--threshold", "1.5", "augment", "{data}/mwp_sample.jsonl", "--methods", "question_format"],
        ],
    )
    def test_exit_4_without_traceback(self, capsys, tmp_path, data_dir, argv):
        (tmp_path / "vectors.txt").write_text("2 3\nwater 1.0 x 0.0\n", encoding="utf-8")
        (tmp_path / "triplets.tsv").write_text("a\tb\n", encoding="utf-8")
        (tmp_path / "bad.jsonl").write_text('{"id": "a"}\n{"id": 1\n', encoding="utf-8")
        code, _, err = run(capsys, *[a.format(data=data_dir, tmp=tmp_path) for a in argv])
        assert code == 4
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
        (tmp_path / "review.tsv").write_text("1\t0-3\tabc\tkept:numeric\n1\t0-3\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *[a.format(data=data_dir) for a in argv])
        assert code == 4
        assert err.startswith(f"error: {bad_file}: line {line}: ")
        assert field in err

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

    def test_unknown_embedder_spec(self, capsys):
        code, _, err = run(capsys, "--embedder", "bogus", "link", "kg")
        assert code == 4


class TestStartup:
    @pytest.mark.parametrize(
        "argv", [["convert", "1", "meter", "centimeter"], ["gen-tasks", "kind_match", "-n", "5"]]
    )
    def test_command_without_embedding_skips_numpy(self, argv):
        script = (
            "import sys\n"
            "from dimkit.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, 'numpy' in sys.modules, file=sys.stderr)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(dimkit.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.stderr == "0 False\n"
