from __future__ import annotations

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

    def test_stdout_output(self, rendered, capsys):
        result_path, _ = rendered
        ocr_path = result_path.parent.parent / "render-demo.json"
        assert run_cli("render", result_path, ocr_path) == 0
        out = capsys.readouterr().out
        assert out.startswith("<svg") and out.rstrip().endswith("</svg>")


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
