from __future__ import annotations

import errno
import importlib
import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from receipt_kie.cli import main
from receipt_kie.ingest import canonical_json

SVG_NS = "{http://www.w3.org/2000/svg}"


def run_cli(*argv: str) -> int:
    return main([str(a) for a in argv])


def run_module(*argv) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so stderr shows what a user sees."""
    return subprocess.run(
        [sys.executable, "-m", "receipt_kie", *(str(a) for a in argv)],
        capture_output=True,
        text=True,
    )


def error_line(proc: subprocess.CompletedProcess) -> str:
    """The one error line of a run that failed with exit 1 and no traceback."""
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    [error] = proc.stderr.splitlines()
    assert error.startswith("ERROR receipt_kie.cli: ")
    return error


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory) -> Path:
    """A small corrupted corpus: clean OCR + truth, plus pred/ with noised
    OCR and surviving labels (codes dropped at 0.3)."""
    out = tmp_path_factory.mktemp("corpus")
    code = run_cli(
        "synth", "--out", out, "--seed", "6", "--docs", "20", "--fn-rate", "code=0.3",
        "--adversarial-rate", "0",
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def results_dir(corpus_dir, tmp_path_factory) -> Path:
    """The corrupted predictions decoded with corrections on."""
    out = tmp_path_factory.mktemp("results")
    code = run_cli(
        "decode", corpus_dir / "pred", "--out", out,
        "--tagger", "import", "--predictions", corpus_dir / "pred",
    )
    assert code == 0
    return out


class TestSynthCommand:
    def test_writes_the_documented_layout(self, corpus_dir):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert manifest["n_docs"] == 20
        assert len(manifest["doc_ids"]) == 20
        for doc_id in manifest["doc_ids"]:
            assert (corpus_dir / f"{doc_id}.json").exists()
            assert (corpus_dir / f"{doc_id}.truth.json").exists()
            assert (corpus_dir / "pred" / f"{doc_id}.json").exists()
            assert (corpus_dir / "pred" / f"{doc_id}.pred.json").exists()

    def test_refuses_a_non_empty_directory(self, tmp_path, capsys):
        (tmp_path / "leftover.txt").write_text("x")
        assert run_cli("synth", "--out", tmp_path, "--seed", "1", "--docs", "1") == 1
        assert run_cli(
            "synth", "--out", tmp_path, "--seed", "1", "--docs", "1", "--force"
        ) == 0

    def test_out_path_that_is_a_file_is_one_error_line(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("x")
        proc = run_module("synth", "--out", taken, "--seed", "1", "--docs", "1")
        assert str(taken) in error_line(proc)

    def test_bad_fn_rate_name_is_a_usage_error(self, tmp_path):
        assert run_cli(
            "synth", "--out", tmp_path / "x", "--seed", "1", "--docs", "1",
            "--fn-rate", "totals=0.3",
        ) == 2

    def test_reruns_are_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            assert run_cli(
                "synth", "--out", tmp_path / sub, "--seed", "9", "--docs", "3",
                "--fn-rate", "price=0.5", "--ocr-noise", "0.1",
            ) == 0
        a_files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.json"))
        b_files = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*.json"))
        assert a_files == b_files
        for rel in a_files:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


class TestDecodeCommand:
    def test_writes_one_result_per_document(self, corpus_dir, results_dir):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        for doc_id in manifest["doc_ids"]:
            assert (results_dir / f"{doc_id}.result.json").exists()

    def test_audit_log_lists_corrections_in_doc_order(self, results_dir):
        lines = (results_dir / "corrections.jsonl").read_text().splitlines()
        assert lines, "codes were dropped at 0.3, some corrections must fire"
        entries = [json.loads(line) for line in lines]
        for entry in entries:
            assert set(entry) == {"doc_id", "group_id", "entity", "token_id", "parsed_value"}
        assert [e["doc_id"] for e in entries] == sorted(e["doc_id"] for e in entries)

    def test_no_corrections_flag(self, corpus_dir, tmp_path):
        out = tmp_path / "plain"
        assert run_cli(
            "decode", corpus_dir / "pred", "--out", out,
            "--tagger", "import", "--predictions", corpus_dir / "pred",
            "--no-corrections",
        ) == 0
        assert (out / "corrections.jsonl").read_text() == ""
        for path in out.glob("*.result.json"):
            payload = json.loads(path.read_text())
            assert all(product["corrected"] == [] for product in payload["products"])

    @pytest.mark.parametrize("damage", ["truncated", "missing"])
    def test_bad_predictions_file_is_one_error_line(self, corpus_dir, tmp_path, damage):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        doc_id = manifest["doc_ids"][0]
        pred = tmp_path / f"{doc_id}.pred.json"
        if damage == "truncated":
            pred.write_bytes((corpus_dir / "pred" / f"{doc_id}.pred.json").read_bytes()[:40])
        proc = run_module(
            "decode", corpus_dir / "pred" / f"{doc_id}.json", "--out", tmp_path / "out",
            "--tagger", "import", "--predictions", pred,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag", [("--y-overlap", "0"), ("--y-overlap", "1.5"),
                 ("--decimal-separators", ""), ("--decimal-separators", "1")],
    )
    def test_invalid_flag_values_are_usage_errors(self, corpus_dir, tmp_path, flag):
        proc = run_module("decode", corpus_dir, "--out", tmp_path / "out", *flag)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_import_tagger_requires_predictions(self, corpus_dir, tmp_path):
        assert run_cli(
            "decode", corpus_dir / "pred", "--out", tmp_path / "x", "--tagger", "import"
        ) == 1

    def test_duplicate_doc_ids_fail(self, corpus_dir, tmp_path):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        doc_id = manifest["doc_ids"][0]
        dup_dir = tmp_path / "dup"
        dup_dir.mkdir()
        payload = (corpus_dir / f"{doc_id}.json").read_bytes()
        (dup_dir / "one.json").write_bytes(payload)
        (dup_dir / "two.json").write_bytes(payload)
        assert run_cli("decode", dup_dir, "--out", tmp_path / "out") == 1

    def test_fail_fast_stops_at_a_duplicate_doc_id(self, corpus_dir, tmp_path):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        payload = (corpus_dir / f"{manifest['doc_ids'][0]}.json").read_bytes()
        dup_dir = tmp_path / "dup"
        dup_dir.mkdir()
        for name in ("one.json", "two.json", "three.json"):
            (dup_dir / name).write_bytes(payload)
        out = tmp_path / "out"
        proc = run_module("decode", dup_dir, "--out", out, "--fail-fast")
        assert proc.returncode == 1
        [error] = proc.stderr.splitlines()
        assert error == (
            f"ERROR receipt_kie.cli: {dup_dir / 'three.json'}: duplicate doc_id "
            f"{manifest['doc_ids'][0]!r} (already decoded from {dup_dir / 'one.json'})"
        )
        assert len(list(out.glob("*.result.json"))) == 1
        # the audit of the one result written, as a decode of that input alone
        alone = tmp_path / "alone"
        assert run_cli("decode", dup_dir / "one.json", "--out", alone) == 0
        assert (out / "corrections.jsonl").read_bytes() == (alone / "corrections.jsonl").read_bytes()

    def test_fail_fast_stops_at_the_first_bad_input(self, corpus_dir, tmp_path):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        (mixed / "bad.json").write_text("{not json")
        (mixed / "good.json").write_bytes((corpus_dir / f"{manifest['doc_ids'][0]}.json").read_bytes())
        out = tmp_path / "out"
        assert run_cli("decode", mixed, "--out", out, "--fail-fast") == 1
        assert [p.name for p in out.iterdir()] == ["corrections.jsonl"]
        assert (out / "corrections.jsonl").read_text() == ""

    def test_fail_fast_keeps_the_audit_of_the_results_it_wrote(self, tmp_path):
        # Two documents of the README corpus, then a malformed input: the
        # two results are written, so their correction records must be too.
        corpus = tmp_path / "corpus"
        assert run_cli(
            "synth", "--out", corpus, "--seed", "7", "--docs", "2",
            "--fn-rate", "code=0.3", "--fn-rate", "quantity=0.3", "--fn-rate", "price=0.3",
        ) == 0
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        doc_ids = ["synth-00000007-00000", "synth-00000007-00001"]
        for doc_id in doc_ids:
            (inputs / f"{doc_id}.json").write_bytes((corpus / "pred" / f"{doc_id}.json").read_bytes())
        (inputs / "zz-malformed.json").write_text("{not json")
        decode = ("--tagger", "import", "--predictions", corpus / "pred")
        out = tmp_path / "out"
        assert run_cli("decode", inputs, "--out", out, "--fail-fast", *decode) == 1
        assert sorted(p.name for p in out.glob("*.result.json")) == [f"{d}.result.json" for d in doc_ids]
        entries = [json.loads(line) for line in (out / "corrections.jsonl").read_text().splitlines()]
        assert len(entries) == 6
        full = tmp_path / "full"
        assert run_cli("decode", *(inputs / f"{d}.json" for d in doc_ids), "--out", full, *decode) == 0
        assert (out / "corrections.jsonl").read_bytes() == (full / "corrections.jsonl").read_bytes()

    def test_a_failed_write_leaves_no_result_and_no_temporary_file(
        self, corpus_dir, results_dir, tmp_path
    ):
        pytest.importorskip("resource")
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        doc_id = manifest["doc_ids"][0]
        limit = 4096
        assert (results_dir / f"{doc_id}.result.json").stat().st_size > limit
        # The file size limit makes the result's write fail partway, as a
        # full disk would.
        script = (
            "import resource, signal, sys\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
            "from receipt_kie.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        out = tmp_path / "out"
        proc = subprocess.run(
            [
                sys.executable, "-c", script, "decode", corpus_dir / "pred" / f"{doc_id}.json",
                "--out", out, "--tagger", "import", "--predictions", corpus_dir / "pred",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        [error] = proc.stderr.splitlines()
        assert f"[Errno {errno.EFBIG}]" in error
        assert [p.name for p in out.iterdir()] == ["corrections.jsonl"]

    def test_unwritable_audit_path_is_one_error_line(self, corpus_dir, tmp_path):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        audit = tmp_path / "missing" / "corrections.jsonl"
        proc = run_module(
            "decode", corpus_dir / f"{manifest['doc_ids'][0]}.json", "--out", tmp_path / "out",
            "--audit", audit,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        [error] = proc.stderr.splitlines()
        assert error.startswith(f"ERROR receipt_kie.cli: {audit}: ")

    def test_predictions_directory_reads_only_the_decoded_documents(
        self, corpus_dir, results_dir, tmp_path
    ):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        doc_id = manifest["doc_ids"][0]
        preds = tmp_path / "preds"
        preds.mkdir()
        name = f"{doc_id}.pred.json"
        (preds / name).write_bytes((corpus_dir / "pred" / name).read_bytes())
        # an entry no decoded document asks for, which cannot be read
        (preds / "unrelated.pred.json").mkdir()
        out = tmp_path / "out"
        assert run_cli(
            "decode", corpus_dir / "pred" / f"{doc_id}.json", "--out", out,
            "--tagger", "import", "--predictions", preds,
        ) == 0
        result = f"{doc_id}.result.json"
        assert (out / result).read_bytes() == (results_dir / result).read_bytes()

    def test_bad_file_in_predictions_directory_fails_its_document_only(
        self, corpus_dir, tmp_path
    ):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        good, truncated, missing = manifest["doc_ids"][:3]
        preds = tmp_path / "preds"
        preds.mkdir()
        for doc_id in (good, truncated):
            name = f"{doc_id}.pred.json"
            (preds / name).write_bytes((corpus_dir / "pred" / name).read_bytes())
        (preds / f"{truncated}.pred.json").write_text("{")
        inputs = [corpus_dir / "pred" / f"{doc_id}.json" for doc_id in (good, truncated, missing)]
        out = tmp_path / "out"
        proc = run_module(
            "decode", *inputs, "--out", out, "--tagger", "import", "--predictions", preds
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        errors = proc.stderr.splitlines()
        assert len(errors) == 2
        assert truncated in errors[0] and missing in errors[1]
        assert [p.name for p in out.glob("*.result.json")] == [f"{good}.result.json"]

    def test_single_predictions_file_tags_only_its_document(self, corpus_dir, tmp_path):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        first, second = manifest["doc_ids"][:2]
        out = tmp_path / "out"
        proc = run_module(
            "decode", *(corpus_dir / "pred" / f"{doc_id}.json" for doc_id in (first, second)),
            "--out", out, "--tagger", "import",
            "--predictions", corpus_dir / "pred" / f"{first}.pred.json",
        )
        assert proc.returncode == 1
        [error] = proc.stderr.splitlines()
        assert f"no predictions loaded for doc_id {second!r}" in error
        assert [p.name for p in out.glob("*.result.json")] == [f"{first}.result.json"]

    def test_doc_id_cannot_leave_the_output_directory(self, tmp_path):
        ocr = tmp_path / "in.json"
        ocr.write_text(json.dumps(dict(RENDER_OCR, doc_id="../escaped")))
        proc = run_module("decode", ocr, "--out", tmp_path / "esc" / "out")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        [error] = proc.stderr.splitlines()
        assert "doc_id" in error
        written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
        assert written == ["esc", "esc/out", "esc/out/corrections.jsonl", "in.json"]

    def test_coordinate_too_large_for_a_float_is_one_error_line(self, tmp_path):
        payload = json.loads(json.dumps(RENDER_OCR))
        payload["words"][0]["polygon"][0] = [10**400, 80]
        ocr = tmp_path / "in.json"
        ocr.write_text(json.dumps(payload))
        proc = run_module("decode", ocr, "--out", tmp_path / "out")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        [error] = proc.stderr.splitlines()
        assert "word 0: vertex 0" in error

    def test_empty_input_directory_is_a_warning_not_an_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli("decode", empty, "--out", tmp_path / "out") == 0

    def test_malformed_input_fails_without_stopping_others(self, corpus_dir, tmp_path):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        doc_id = manifest["doc_ids"][0]
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        (mixed / "good.json").write_bytes((corpus_dir / f"{doc_id}.json").read_bytes())
        (mixed / "bad.json").write_text("{not json")
        out = tmp_path / "out"
        assert run_cli("decode", mixed, "--out", out) == 1
        assert (out / f"{doc_id}.result.json").exists()

    def test_heuristic_tagger_reads_the_decimal_separators_flag(self, tmp_path):
        words = [("MILK", 40), ("2", 450), ("12.50", 700)]
        ocr = {
            "doc_id": "d",
            "page": {"width": 900, "height": 400},
            "words": [
                {"text": text, "polygon": [[x, 100], [x + 60, 100], [x + 60, 120], [x, 120]]}
                for text, x in words
            ],
        }
        (tmp_path / "d.json").write_text(json.dumps(ocr))
        for separators, price_label in ((".,", "price"), (",", "untagged")):
            out = tmp_path / f"out{len(separators)}"
            argv = ["decode", tmp_path / "d.json", "--out", out, "--decimal-separators", separators]
            assert run_cli(*argv) == 0
            result = json.loads((out / "d.result.json").read_text())
            labels = [tok["label"] for tok in result["tokens"]]
            assert labels == ["description", "quantity", price_label]

    def test_heuristic_decode_of_clean_corpus(self, corpus_dir, tmp_path):
        out = tmp_path / "heuristic"
        assert run_cli("decode", corpus_dir, "--out", out) == 0
        results = list(out.glob("*.result.json"))
        assert len(results) == 20


class TestEvalCommand:
    def test_reports_and_exits_zero(self, corpus_dir, results_dir, capsys):
        assert run_cli("eval", "--results", results_dir, "--truth", corpus_dir) == 0
        out = capsys.readouterr().out
        assert "documents: 20" in out
        for row in ("descriptions", "codes", "quantities", "prices", "whole products"):
            assert row in out

    def test_corrections_push_codes_over_a_bar_that_uncorrected_misses(
        self, corpus_dir, results_dir, tmp_path, capsys
    ):
        # same predictions decoded without corrections: the dropped codes
        # stay dropped and the 0.95 bar fails; with corrections it holds
        plain = tmp_path / "plain"
        assert run_cli(
            "decode", corpus_dir / "pred", "--out", plain,
            "--tagger", "import", "--predictions", corpus_dir / "pred",
            "--no-corrections",
        ) == 0
        assert run_cli(
            "eval", "--results", plain, "--truth", corpus_dir, "--min-f1", "codes=0.95"
        ) == 2
        assert "FAIL --min-f1 codes" in capsys.readouterr().out
        assert run_cli(
            "eval", "--results", results_dir, "--truth", corpus_dir,
            "--min-f1", "codes=0.95",
        ) == 0

    def test_min_f1_accepts_singular_and_plural_names(self, corpus_dir, results_dir):
        assert run_cli(
            "eval", "--results", results_dir, "--truth", corpus_dir,
            "--min-f1", "description=0.99", "--min-f1", "whole=0.0",
        ) == 0

    def test_unknown_min_f1_name_is_a_usage_error(self, corpus_dir, results_dir):
        assert run_cli(
            "eval", "--results", results_dir, "--truth", corpus_dir,
            "--min-f1", "totals=0.5",
        ) == 2

    def test_json_out_is_canonical(self, corpus_dir, results_dir, tmp_path):
        report_path = tmp_path / "report.json"
        assert run_cli(
            "eval", "--results", results_dir, "--truth", corpus_dir,
            "--json-out", report_path,
        ) == 0
        raw = report_path.read_text()
        payload = json.loads(raw)
        assert payload["mode"] == "tag"
        assert canonical_json(payload) == raw
        assert set(payload["entities"]) == {"descriptions", "codes", "quantities", "prices"}

    def test_unwritable_json_out_is_one_error_line(self, corpus_dir, results_dir, tmp_path):
        report_path = tmp_path / "missing" / "report.json"
        proc = run_module(
            "eval", "--results", results_dir, "--truth", corpus_dir, "--json-out", report_path
        )
        assert str(report_path) in error_line(proc)

    def test_compare_prints_both_runs(self, corpus_dir, results_dir, tmp_path, capsys):
        plain = tmp_path / "plain"
        assert run_cli(
            "decode", corpus_dir / "pred", "--out", plain,
            "--tagger", "import", "--predictions", corpus_dir / "pred",
            "--no-corrections",
        ) == 0
        assert run_cli(
            "eval", "--results", results_dir, "--truth", corpus_dir, "--compare", plain
        ) == 0
        out = capsys.readouterr().out
        assert results_dir.name in out and "plain" in out

    def test_strict_mode_flag_is_accepted(self, corpus_dir, results_dir):
        assert run_cli(
            "eval", "--results", results_dir, "--truth", corpus_dir, "--mode", "strict"
        ) == 0

    def test_results_with_non_dense_token_ids_fail(self, corpus_dir, results_dir, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        for path in results_dir.glob("*.result.json"):
            (bad / path.name).write_bytes(path.read_bytes())
        victim = sorted(bad.glob("*.result.json"))[0]
        payload = json.loads(victim.read_text())
        payload["tokens"][1]["token_id"] = 0
        victim.write_text(json.dumps(payload))
        proc = run_module("eval", "--results", bad, "--truth", corpus_dir)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert "token 1" in proc.stderr

    def test_duplicate_results_fail(self, corpus_dir, results_dir, tmp_path):
        dup = tmp_path / "dup"
        dup.mkdir()
        for path in results_dir.glob("*.result.json"):
            (dup / path.name).write_bytes(path.read_bytes())
        original = sorted(dup.glob("*.result.json"))[-1]
        copy = dup / "copy.result.json"
        copy.write_bytes(original.read_bytes())
        proc = run_module("eval", "--results", dup, "--truth", corpus_dir)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        [error] = proc.stderr.splitlines()
        assert "duplicate doc_id" in error
        assert str(original) in error and str(copy) in error

    @pytest.mark.parametrize("damage", ["another-page", "nudged-box"])
    def test_result_from_another_page_fails(self, corpus_dir, results_dir, tmp_path, damage):
        bad = tmp_path / "bad"
        bad.mkdir()
        for path in results_dir.glob("*.result.json"):
            (bad / path.name).write_bytes(path.read_bytes())
        victim, donor = sorted(bad.glob("*.result.json"))[:2]
        payload = json.loads(victim.read_text())
        if damage == "another-page":
            payload = {**json.loads(donor.read_text()), "doc_id": payload["doc_id"]}
            token_id = 0
        else:
            token_id = 5
            payload["tokens"][token_id]["bbox"]["y_min"] -= 0.001
        victim.write_text(json.dumps(payload))
        for flags in (["--results", bad], ["--results", results_dir, "--compare", bad]):
            proc = run_module("eval", *flags, "--truth", corpus_dir)
            assert proc.returncode == 1
            [error] = proc.stderr.splitlines()
            assert error.startswith(f"ERROR receipt_kie.cli: {victim}: not decoded from the truth page")
            assert f"token {token_id} differs" in error

    def test_result_with_another_doc_id_fails(self, corpus_dir, results_dir, tmp_path):
        # Its boxes are those of its truth page; only the doc id differs.
        bad = tmp_path / "bad"
        bad.mkdir()
        for path in results_dir.glob("*.result.json"):
            (bad / path.name).write_bytes(path.read_bytes())
        victim = sorted(bad.glob("*.result.json"))[0]
        payload = json.loads(victim.read_text())
        doc_id, payload["doc_id"] = payload["doc_id"], "stranger"
        victim.write_text(json.dumps(payload))
        error = error_line(run_module("eval", "--results", bad, "--truth", corpus_dir))
        assert error.endswith(f"no predictions for {doc_id}; no ground truth for stranger")

    def test_integer_past_the_digit_limit_is_one_error_line(self, corpus_dir, results_dir, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        for path in results_dir.glob("*.result.json"):
            (bad / path.name).write_bytes(path.read_bytes())
        sorted(bad.glob("*.result.json"))[0].write_text('{"doc_id": ' + "9" * 5000 + "}")
        proc = run_module("eval", "--results", bad, "--truth", corpus_dir)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        [error] = proc.stderr.splitlines()
        assert "too many digits" in error

    def test_parse_error_names_the_file(self, corpus_dir, results_dir, tmp_path):
        good, victim = sorted(results_dir.glob("*.result.json"))[:2]
        bad = tmp_path / victim.name
        payload = json.loads(victim.read_text())
        payload["tokens"][0]["label"] = "bogus"
        bad.write_text(json.dumps(payload))
        proc = run_module("eval", "--results", good, bad, "--truth", corpus_dir)
        assert proc.returncode == 1
        assert proc.stderr == f"ERROR receipt_kie.cli: {bad}: token 0: unknown label 'bogus'\n"

    def test_missing_truth_directory_fails(self, results_dir, tmp_path):
        empty = tmp_path / "no-truth"
        empty.mkdir()
        assert run_cli("eval", "--results", results_dir, "--truth", empty) == 1


# A receipt whose price sits left of the heuristic price band, so the
# decode pipeline must recover it via the correction rules — which gives
# the renderer a corrected token to draw.
RENDER_OCR = {
    "doc_id": "render-demo",
    "page": {"width": 600, "height": 400},
    "words": [
        {"text": "SOAP", "polygon": [[40, 80], [100, 80], [100, 100], [40, 100]]},
        {"text": "8004520", "polygon": [[40, 120], [120, 120], [120, 140], [40, 140]]},
        {"text": "2", "polygon": [[300, 120], [315, 120], [315, 140], [300, 140]]},
        {"text": "9.99", "polygon": [[350, 120], [395, 120], [395, 140], [350, 140]]},
    ],
}


@pytest.fixture()
def rendered(tmp_path):
    ocr_path = tmp_path / "render-demo.json"
    ocr_path.write_text(json.dumps(RENDER_OCR))
    out = tmp_path / "out"
    assert run_cli("decode", ocr_path, "--out", out) == 0
    result_path = out / "render-demo.result.json"
    svg_path = tmp_path / "demo.svg"
    assert run_cli("render", result_path, ocr_path, "--out", svg_path) == 0
    return result_path, svg_path


class TestRenderCommand:
    def test_svg_structure(self, rendered):
        result_path, svg_path = rendered
        result = json.loads(result_path.read_text())
        root = ET.fromstring(svg_path.read_text())
        assert root.tag == f"{SVG_NS}svg"

        rects = root.findall(f"{SVG_NS}rect")
        token_rects = [r for r in rects if r.get("class") == "token"]
        group_rects = [r for r in rects if r.get("class") == "group"]
        assert len(token_rects) == len(result["tokens"])
        assert len(group_rects) == len(result["products"])

        texts = [t.text for t in root.findall(f"{SVG_NS}text")]
        assert texts == [tok["text"] for tok in result["tokens"]]

    def test_token_fills_follow_the_labels(self, rendered):
        result_path, svg_path = rendered
        result = json.loads(result_path.read_text())
        root = ET.fromstring(svg_path.read_text())
        token_rects = [r for r in root.findall(f"{SVG_NS}rect") if r.get("class") == "token"]
        expected_fill = {
            "description": "#2e8b57",
            "code": "#808080",
            "quantity": "#e8c011",
            "price": "#d92b2b",
            "untagged": "none",
        }
        for rect, tok in zip(token_rects, result["tokens"]):
            assert rect.get("fill") == expected_fill[tok["label"]]

    def test_corrected_tokens_get_the_dashed_outline(self, rendered):
        result_path, svg_path = rendered
        result = json.loads(result_path.read_text())
        # the decode really did have to correct the price
        assert ["price"] in [p["corrected"] for p in result["products"]]
        corrected_ids = {
            tok["token_id"] for tok in result["tokens"] if tok.get("source") == "correction"
        }
        assert corrected_ids

        root = ET.fromstring(svg_path.read_text())
        token_rects = [r for r in root.findall(f"{SVG_NS}rect") if r.get("class") == "token"]
        dashed = [
            tok["token_id"]
            for rect, tok in zip(token_rects, result["tokens"])
            if rect.get("stroke-dasharray") == "5 3"
        ]
        assert set(dashed) == corrected_ids

    def test_groups_get_distinct_ramp_colors(self, corpus_dir, results_dir, tmp_path):
        # find a document with at least two products
        for result_path in sorted(results_dir.glob("*.result.json")):
            result = json.loads(result_path.read_text())
            if len(result["products"]) >= 2:
                break
        else:
            pytest.fail("corpus has no multi-product document")
        doc_id = result["doc_id"]
        svg_path = tmp_path / "multi.svg"
        assert run_cli(
            "render", result_path, corpus_dir / "pred" / f"{doc_id}.json", "--out", svg_path
        ) == 0
        root = ET.fromstring(svg_path.read_text())
        strokes = [
            r.get("stroke")
            for r in root.findall(f"{SVG_NS}rect")
            if r.get("class") == "group"
        ]
        assert len(strokes) == len(result["products"])
        assert len(set(strokes)) == len(strokes)

    def test_doc_id_mismatch_fails(self, rendered, tmp_path):
        result_path, _ = rendered
        other = dict(RENDER_OCR, doc_id="someone-else")
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other))
        assert run_cli("render", result_path, other_path) == 1

    def test_result_from_another_page_is_one_error_line(self, tmp_path):
        # Two words on a 600x400 page, and one word on a 10x10 page that
        # says it is the same document.
        def page(width, height, words):
            return {
                "doc_id": "r",
                "page": {"width": width, "height": height},
                "words": [
                    {"text": text, "polygon": [[x, y], [x + 5, y], [x + 5, y + 5], [x, y + 5]]}
                    for text, x, y in words
                ],
            }

        two_words = page(600, 400, [("SOAP", 40, 80), ("9.99", 450, 80)])
        (tmp_path / "r.json").write_text(json.dumps(two_words))
        (tmp_path / "other.json").write_text(json.dumps(page(10, 10, [("SOAP", 0, 0)])))
        assert run_cli("decode", tmp_path / "r.json", "--out", tmp_path / "out") == 0
        result_path = tmp_path / "out" / "r.result.json"
        svg_path = tmp_path / "r.svg"
        proc = run_module("render", result_path, tmp_path / "other.json", "--out", svg_path)
        assert error_line(proc).endswith(
            f"{result_path}: not decoded from the OCR page of doc_id 'r': "
            "token 0 differs (2 tokens, OCR has 1)"
        )
        assert not svg_path.exists()

    def test_unwritable_out_path_is_one_error_line(self, rendered, tmp_path):
        result_path, _ = rendered
        ocr_path = result_path.parent.parent / "render-demo.json"
        svg_path = tmp_path / "missing" / "demo.svg"
        proc = run_module("render", result_path, ocr_path, "--out", svg_path)
        assert str(svg_path) in error_line(proc)

    @pytest.mark.parametrize("to_file", [True, False])
    def test_lone_surrogate_in_a_result_is_one_error_line(self, rendered, tmp_path, to_file):
        result_path, _ = rendered
        ocr_path = result_path.parent.parent / "render-demo.json"
        result = json.loads(result_path.read_text())
        result["tokens"][0]["text"] = "SOAP\ud800"
        bad_path = tmp_path / "bad.result.json"
        bad_path.write_text(json.dumps(result))  # the surrogate as a valid JSON escape
        svg_path = tmp_path / "bad.svg"
        proc = run_module("render", bad_path, ocr_path, *(["--out", svg_path] if to_file else []))
        assert str(bad_path) in error_line(proc)
        assert "lone surrogate" in proc.stderr
        assert proc.stdout == ""
        assert not svg_path.exists()

    def test_stdout_output(self, rendered, capsys):
        result_path, _ = rendered
        ocr_path = result_path.parent.parent / "render-demo.json"
        assert run_cli("render", result_path, ocr_path) == 0
        out = capsys.readouterr().out
        assert out.startswith("<svg") and out.rstrip().endswith("</svg>")


def test_benchmark_trace_points_see_every_layer(corpus_dir, tmp_path, monkeypatch):
    """perfbench wraps package functions at the module names the CLI looks
    them up by; a renamed or import-bound function would read as zero. A
    decode with each tagger and an eval see every span it installs."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracer = importlib.import_module("child").make_tracer()
    doc_id = json.loads((corpus_dir / "manifest.json").read_text())["doc_ids"][0]
    ocr = corpus_dir / "pred" / f"{doc_id}.json"
    truth = tmp_path / "truth"
    truth.mkdir()
    for name in (f"{doc_id}.json", f"{doc_id}.truth.json"):
        (truth / name).write_bytes((corpus_dir / name).read_bytes())
    tracer.install()
    try:
        for tagger in (["heuristic"], ["import", "--predictions", corpus_dir / "pred"]):
            argv = ["decode", ocr, "--out", tmp_path / tagger[0], "--tagger", *tagger]
            assert tracer.root("cli.main", main, [str(a) for a in argv]) == 0
        argv = ["eval", "--results", tmp_path / "import", "--truth", truth]
        assert tracer.root("cli.main", main, [str(a) for a in argv]) == 0
    finally:
        tracer.uninstall()
    spans, _ = tracer.take()
    assert {span[0] for span in spans} == {
        "cli.main",
        "ingest.parse_ocr",
        "ingest.serialize_result",
        "ingest.parse_result",
        "ingest.parse_ground_truth",
        "tagging.heuristic_tag",
        "tagging.import_predictions",
        "layout.detect_lines_geometric",
        "layout.group_product_lines",
        "layout.assign_entities",
        "corrections.apply_corrections",
        "evaluation.from_groups",
        "evaluation.build_report",
    }


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "receipt_kie", "synth", "--out", str(tmp_path / "c"),
             "--seed", "2", "--docs", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "wrote 1 documents" in proc.stdout

    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "receipt_kie", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "receipt-kie" in proc.stdout

    def test_round_trip_bytes_via_subprocess(self, tmp_path):
        # the full loop once more, out of process, to pin byte determinism
        # of everything the CLI writes
        for sub in ("x", "y"):
            corpus = tmp_path / sub / "corpus"
            results = tmp_path / sub / "results"
            for argv in (
                ["synth", "--out", str(corpus), "--seed", "3", "--docs", "2",
                 "--fn-rate", "quantity=0.5"],
                ["decode", str(corpus / "pred"), "--out", str(results),
                 "--tagger", "import", "--predictions", str(corpus / "pred")],
            ):
                proc = subprocess.run(
                    [sys.executable, "-m", "receipt_kie", *argv], capture_output=True
                )
                assert proc.returncode == 0, proc.stderr
        x = sorted((tmp_path / "x").rglob("*.json*"))
        y = sorted((tmp_path / "y").rglob("*.json*"))
        assert [p.relative_to(tmp_path / "x") for p in x] == [
            p.relative_to(tmp_path / "y") for p in y
        ]
        for a, b in zip(x, y):
            assert a.read_bytes() == b.read_bytes()
