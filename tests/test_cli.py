from __future__ import annotations

import errno
import gc
import importlib
import io
import json
import logging
import os
import pickle
import random
import re
import shutil
import signal
import stat
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from receipt_kie import cli, errors, evaluation, ingest, tagging
from receipt_kie.cli import main
from receipt_kie.ingest import canonical_json
from receipt_kie.model import LabelSource

from reference_impls import reference_decode

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


def os_error_line(code: int, path: Path) -> str:
    """The error line of an ``OSError`` with errno ``code`` that names ``path``."""
    return f"ERROR receipt_kie.cli: [Errno {code}] {os.strerror(code)}: {str(path)!r}"


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

    @pytest.mark.parametrize("own_file", ["notes.txt", "pred/notes.txt"])
    def test_force_replaces_the_previous_corpus_and_keeps_other_files(self, tmp_path, own_file):
        out, fresh = tmp_path / "f", tmp_path / "fresh"
        assert run_cli(
            "synth", "--out", out, "--seed", "1", "--docs", "3", "--fn-rate", "code=0.3"
        ) == 0
        (out / own_file).write_text("mine")
        assert run_cli("synth", "--out", out, "--seed", "2", "--docs", "2", "--force") == 0
        assert run_cli("synth", "--out", fresh, "--seed", "2", "--docs", "2") == 0
        expected = {p.relative_to(fresh) for p in fresh.rglob("*")}
        expected |= {Path(own_file), *Path(own_file).parents} - {Path(".")}
        assert {p.relative_to(out) for p in out.rglob("*")} == expected
        for rel in expected - {Path(own_file), Path("pred")}:
            assert (out / rel).read_bytes() == (fresh / rel).read_bytes()
        assert (out / own_file).read_text() == "mine"

    def test_force_refuses_a_manifest_whose_ids_are_not_file_names(self, tmp_path):
        out = tmp_path / "f"
        out.mkdir()
        (tmp_path / "x.json").write_text("keep")
        (out / "manifest.json").write_text('{"doc_ids": ["../x"]}')
        proc = run_module("synth", "--out", out, "--seed", "1", "--docs", "1", "--force")
        assert "doc_ids must be a list of file names" in error_line(proc)
        assert (tmp_path / "x.json").read_text() == "keep"

    @pytest.mark.parametrize("doc_id", ["", "..", "a\\b"])
    def test_force_refuses_a_manifest_id_that_is_not_a_plain_file_name(self, tmp_path, doc_id):
        out = tmp_path / "f"
        out.mkdir()
        (out / "manifest.json").write_text(json.dumps({"doc_ids": [doc_id]}))
        kept = out / f"{doc_id}.json"
        kept.write_text("keep")
        proc = run_module("synth", "--out", out, "--seed", "1", "--docs", "1", "--force")
        assert "doc_ids must be a list of file names" in error_line(proc)
        assert kept.read_text() == "keep"

    def test_force_refuses_a_manifest_id_with_a_lone_surrogate(self, tmp_path):
        # "\ud800" is valid JSON but names no file: UTF-8 cannot encode it.
        out = tmp_path / "f"
        out.mkdir()
        (out / "manifest.json").write_text(json.dumps({"doc_ids": ["kept", "\ud800"]}))
        kept = out / "kept.json"
        kept.write_text("keep")
        proc = run_module("synth", "--out", out, "--seed", "1", "--docs", "1", "--force")
        assert "doc_ids must be a list of file names" in error_line(proc)
        assert kept.read_text() == "keep"

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

    def test_repeated_fn_rate_name_is_a_usage_error(self, tmp_path):
        # The singular name and its plural alias set the same rate.
        out = tmp_path / "x"
        proc = run_module(
            "synth", "--out", out, "--seed", "1", "--docs", "1",
            "--fn-rate", "code=0.3", "--fn-rate", "codes=0.1",
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "ERROR receipt_kie.cli: --fn-rate sets one name twice: 'code=0.3' and 'codes=0.1'"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["-1", "nan"])
    def test_bad_ocr_noise_is_a_usage_error_without_fn_rates(self, tmp_path, rate):
        out = tmp_path / "x"
        proc = run_module(
            "synth", "--out", out, "--seed", "1", "--docs", "1", "--ocr-noise", rate
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("ERROR receipt_kie.cli: ocr_noise_rate must be a probability")
        assert not out.exists()

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
        assert proc.stderr.count(str(pred)) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        ("flag", "message"),
        [
            (("--y-overlap", "0"), "y_overlap_threshold must be in (0, 1], got 0.0"),
            (("--y-overlap", "1.5"), "y_overlap_threshold must be in (0, 1], got 1.5"),
            (("--y-overlap", "nan"), "y_overlap_threshold must be in (0, 1], got nan"),
            (("--decimal-separators", ""), "decimal_separators must not be empty"),
            (("--decimal-separators", "1"), "digit '1' cannot be a decimal separator"),
            (("--decimal-separators", ".5"), "digit '5' cannot be a decimal separator"),
            (("--tagger", "import"), "--tagger import requires --predictions"),
            (("--predictions", "preds"), "--predictions requires --tagger import"),
        ],
    )
    def test_invalid_flag_values_are_usage_errors(self, corpus_dir, tmp_path, flag, message):
        proc = run_module("decode", corpus_dir, "--out", tmp_path / "out", *flag)
        assert proc.returncode == 2
        assert proc.stderr == f"ERROR receipt_kie.cli: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_import_without_predictions_is_a_usage_error_before_inputs_are_read(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert run_cli("decode", tmp_path / "empty", "--out", tmp_path / "out", "--tagger", "import") == 2

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
        assert error == os_error_line(errno.EFBIG, out / f"{doc_id}.result.json")
        assert [p.name for p in out.iterdir()] == ["corrections.jsonl"]

    def test_unwritable_audit_path_is_one_error_line(self, corpus_dir, tmp_path):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        audit = tmp_path / "missing" / "corrections.jsonl"
        proc = run_module(
            "decode", corpus_dir / f"{manifest['doc_ids'][0]}.json", "--out", tmp_path / "out",
            "--audit", audit,
        )
        assert error_line(proc) == os_error_line(errno.ENOENT, audit)

    def test_audit_through_a_symlink_replaces_its_target(self, corpus_dir, tmp_path):
        target = tmp_path / "kept" / "corrections.jsonl"
        target.parent.mkdir()
        target.write_text("stale\n")
        link = tmp_path / "link.jsonl"
        link.symlink_to(target)
        decode = (corpus_dir / "pred", "--tagger", "import", "--predictions", corpus_dir / "pred")
        assert run_cli("decode", *decode, "--out", tmp_path / "out", "--audit", link) == 0
        assert run_cli("decode", *decode, "--out", tmp_path / "plain") == 0
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == (tmp_path / "plain" / "corrections.jsonl").read_bytes() != b""
        assert sorted(p.name for p in target.parent.iterdir()) == ["corrections.jsonl"]

    def test_audit_to_a_fifo_writes_into_it(self, corpus_dir, tmp_path):
        if not hasattr(os, "mkfifo"):
            pytest.skip("no FIFOs on this platform")
        fifo = tmp_path / "audit.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        decode = (corpus_dir / "pred", "--tagger", "import", "--predictions", corpus_dir / "pred")
        assert run_cli("decode", *decode, "--out", tmp_path / "out", "--audit", fifo) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert run_cli("decode", *decode, "--out", tmp_path / "plain") == 0
        assert received == [(tmp_path / "plain" / "corrections.jsonl").read_bytes()]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["audit.fifo", "out", "plain"]

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
        assert errors == [
            f"ERROR receipt_kie.cli: {preds / f'{truncated}.pred.json'}: "
            "Expecting property name enclosed in double quotes (byte offset 1)",
            os_error_line(errno.ENOENT, preds / f"{missing}.pred.json"),
        ]
        assert [p.name for p in out.glob("*.result.json")] == [f"{good}.result.json"]

    @pytest.mark.parametrize("preds_arg", ["pred", "pred/", "./pred", ".", "absolute"])
    @pytest.mark.parametrize("damage", ["missing", "truncated"])
    def test_a_predictions_file_is_named_as_pathlib_prints_it(
        self, corpus_dir, tmp_path, monkeypatch, capsys, preds_arg, damage
    ):
        # Predictions paths are joined as strings; the error line names the
        # file as Path(--predictions) / name prints it.
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        doc_id = manifest["doc_ids"][0]
        preds = tmp_path / "pred"
        preds.mkdir()
        name = f"{doc_id}.pred.json"
        if damage == "truncated":
            (preds / name).write_bytes((corpus_dir / "pred" / name).read_bytes()[:40])
        monkeypatch.chdir(preds if preds_arg == "." else tmp_path)
        preds_arg = str(preds) if preds_arg == "absolute" else preds_arg
        code = run_cli(
            "decode", corpus_dir / "pred" / f"{doc_id}.json", "--out", tmp_path / "out",
            "--tagger", "import", "--predictions", preds_arg,
        )
        assert code == 1
        named = Path(preds_arg) / name
        error = capsys.readouterr().err
        if damage == "missing":
            assert error == os_error_line(errno.ENOENT, named) + "\n"
        else:
            assert error.startswith(f"ERROR receipt_kie.cli: {named}: ")
            assert error.count("\n") == 1

    def test_prediction_of_an_unknown_token_names_the_predictions_file(self, corpus_dir, tmp_path):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        doc_id = manifest["doc_ids"][0]
        preds = tmp_path / "preds"
        preds.mkdir()
        pred = preds / f"{doc_id}.pred.json"
        payload = json.loads((corpus_dir / "pred" / pred.name).read_text())
        payload["labels"][1]["token_id"] = 99999
        pred.write_text(json.dumps(payload))
        error = error_line(run_module(
            "decode", corpus_dir / "pred" / f"{doc_id}.json", "--out", tmp_path / "out",
            "--tagger", "import", "--predictions", preds,
        ))
        assert error == (
            f"ERROR receipt_kie.cli: {pred}: label 1: token_id references unknown token id 99999"
        )

    def test_missing_input_is_named_once(self, corpus_dir, tmp_path):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        missing = tmp_path / "nosuch.json"
        proc = run_module("decode", corpus_dir / f"{manifest['doc_ids'][0]}.json", missing,
                          "--out", tmp_path / "out")
        assert error_line(proc) == os_error_line(errno.ENOENT, missing)
        assert len(list((tmp_path / "out").glob("*.result.json"))) == 1

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

    def test_only_a_predicted_confidence_reaches_the_result(self, tmp_path):
        # Every OCR word carries a confidence; the predictions give one to
        # the price only and drop the quantity, which the rules restore.
        words = [
            ("SUPERMART", 40, 20), ("MILK", 40, 60), ("4902102", 40, 100),
            ("123", 200, 100), ("2", 300, 100), ("1.50", 480, 100),
        ]
        ocr = {
            "doc_id": "c",
            "page": {"width": 600, "height": 400},
            "words": [
                {
                    "text": text,
                    "polygon": [[x, y], [x + 40, y], [x + 40, y + 20], [x, y + 20]],
                    "confidence": 0.9 + i / 100,
                }
                for i, (text, x, y) in enumerate(words)
            ],
        }
        labels = [
            {"token_id": 1, "label": "description"},
            {"token_id": 2, "label": "code"},
            {"token_id": 5, "label": "price", "confidence": 0.5},
        ]
        (tmp_path / "c.json").write_text(json.dumps(ocr))
        (tmp_path / "c.pred.json").write_text(json.dumps({"doc_id": "c", "labels": labels}))
        decoded = {}
        for tagger in ("import", "heuristic"):
            out = tmp_path / tagger
            argv = ["decode", tmp_path / "c.json", "--out", out, "--tagger", tagger]
            if tagger == "import":
                argv += ["--predictions", tmp_path / "c.pred.json"]
            assert run_cli(*argv) == 0
            result = json.loads((out / "c.result.json").read_text())
            decoded[tagger] = [
                (tok["label"], tok.get("source"), tok.get("confidence"))
                for tok in result["tokens"]
            ]
        assert decoded["import"] == [
            ("untagged", None, None),
            ("description", "model", None),
            ("code", "model", None),
            ("untagged", None, None),
            ("quantity", "correction", None),
            ("price", "model", 0.5),
        ]
        assert decoded["heuristic"] == [
            ("description", "heuristic", None),
            ("description", "heuristic", None),
            ("code", "heuristic", None),
            ("untagged", None, None),
            ("quantity", "heuristic", None),
            ("price", "heuristic", None),
        ]


def test_the_inline_reader_checks_carry_every_synth_record(
    corpus_dir, results_dir, tmp_path, monkeypatch
):
    # parse_ocr and parse_result test the common value of each field inline
    # and send any other value to the field's named check. A synth corpus,
    # its noised OCR and its import and heuristic decodes hold only common
    # values: if one reached a named check, an inline test that always
    # failed would pass every other test and lose the speed unseen.
    heuristic = tmp_path / "heuristic"
    assert run_cli("decode", corpus_dir, "--out", heuristic) == 0
    ocr_files = [
        path
        for folder in (corpus_dir, corpus_dir / "pred")
        for path in folder.glob("*.json")
        if not path.name.endswith((".truth.json", ".pred.json")) and path.name != "manifest.json"
    ]
    result_files = [*results_dir.glob("*.result.json"), *heuristic.glob("*.result.json")]
    assert len(ocr_files) == len(result_files) == 40

    def named_check(name):
        def check(*args):
            raise AssertionError(f"{name} reached with {args!r}")
        return check

    for name in ("_text", "_confidence", "_lookup", "_vertex_on_page"):
        monkeypatch.setattr(ingest, name, named_check(name))
    # Group boxes take _bbox_from_json by design; token boxes must not.
    bbox_from_json = ingest._bbox_from_json

    def group_bbox_from_json(raw, where):
        if not where.startswith("product "):
            raise AssertionError(f"_bbox_from_json reached for {where}")
        return bbox_from_json(raw, where)

    monkeypatch.setattr(ingest, "_bbox_from_json", group_bbox_from_json)
    for path in ocr_files:
        ingest.parse_ocr(path.read_bytes())
    sources = set()
    for path in result_files:
        doc, _ = ingest.parse_result(path.read_bytes())
        sources.update(tok.source for tok in doc.tokens)
    assert sources == {None, *LabelSource}
    # Synth writes no confidence; a float one passes inline too.
    for path, parse, key in (
        (ocr_files[0], ingest.parse_ocr, "words"),
        (result_files[0], ingest.parse_result, "tokens"),
    ):
        payload = json.loads(path.read_bytes())
        for record in payload[key]:
            record["confidence"] = 0.5
        parse(json.dumps(payload))


@dataclass(frozen=True)
class DecodeCase:
    """The synth and decode knobs of one composed-reference check."""

    seed: int = 7
    products: str = "1:4"
    multiline_prob: float = 0.35
    code_prob: float = 0.8
    adversarial_rate: float = 0.05
    ocr_noise: float = 0.0
    description_fn_rate: float = 0.0
    scalar_fn_rate: float = 0.3  # for codes, quantities and prices alike
    tagger: str = "import"
    separators: str = ".,"
    y_overlap: float | None = None  # None: the CLI default
    corrections: bool = True
    confidences: bool = False  # a confidence on every OCR word and predicted label


_CONFIDENCES = (0, 0.25, 0.5, 1, 0.93)


def _add_confidences(pred_dir: Path) -> None:
    for path in pred_dir.glob("*.json"):
        payload = json.loads(path.read_bytes())
        records = payload["labels" if path.name.endswith(".pred.json") else "words"]
        for k, record in enumerate(records):
            record["confidence"] = _CONFIDENCES[k % len(_CONFIDENCES)]
        path.write_text(json.dumps(payload), encoding="utf-8")


@settings(max_examples=25, deadline=None)
@given(
    case=st.builds(
        DecodeCase,
        seed=st.integers(0, 999),
        products=st.sampled_from(["1:1", "1:3", "2:5"]),
        multiline_prob=st.sampled_from([0.0, 0.35, 1.0]),
        code_prob=st.sampled_from([0.0, 0.5, 1.0]),
        adversarial_rate=st.sampled_from([0.0, 0.5, 1.0]),
        ocr_noise=st.sampled_from([0.0, 0.2]),
        description_fn_rate=st.sampled_from([0.0, 0.3]),
        scalar_fn_rate=st.sampled_from([0.0, 0.3, 1.0]),
        tagger=st.sampled_from(["import", "heuristic"]),
        separators=st.sampled_from([".,", ".", "x"]),
        y_overlap=st.sampled_from([None, 0.8, 0.85]),
        corrections=st.booleans(),
        confidences=st.booleans(),
    )
)
@example(case=DecodeCase())
@example(case=DecodeCase(corrections=False))
@example(case=DecodeCase(tagger="heuristic", code_prob=0.5, adversarial_rate=1.0))
@example(case=DecodeCase(ocr_noise=0.2, separators="x"))
@example(case=DecodeCase(tagger="heuristic", separators="x", corrections=False))
@example(case=DecodeCase(code_prob=0.5, scalar_fn_rate=1.0, confidences=True))
@example(case=DecodeCase(tagger="heuristic", y_overlap=0.8))
def test_decode_matches_the_composed_reference(case, tmp_path_factory):
    """The result files and corrections.jsonl of a decode are, byte for
    byte, what reference_decode makes of the same files: small synth
    corpora over the spec, corruption and decode knobs."""
    base = tmp_path_factory.mktemp("reference-decode")
    corpus, pred, out = base / "corpus", base / "corpus" / "pred", base / "out"
    fn_rates = [f"--fn-rate=description={case.description_fn_rate}"] + [
        f"--fn-rate={name}={case.scalar_fn_rate}" for name in ("code", "quantity", "price")
    ]
    code = run_cli(
        "synth", "--out", corpus, "--seed", case.seed, "--docs", 4, "--products", case.products,
        "--multiline-prob", case.multiline_prob, "--code-prob", case.code_prob,
        "--adversarial-rate", case.adversarial_rate, "--ocr-noise", case.ocr_noise, *fn_rates,
    )
    assert code == 0
    if case.confidences:
        _add_confidences(pred)
    argv = ["decode", pred, "--out", out, "--tagger", case.tagger,
            "--decimal-separators", case.separators]
    if case.tagger == "import":
        argv += ["--predictions", pred]
    if case.y_overlap is not None:
        argv += ["--y-overlap", case.y_overlap]
    if not case.corrections:
        argv.append("--no-corrections")
    assert run_cli(*argv) == 0

    audit = []
    names = ["corrections.jsonl"]
    for path in sorted(pred.glob("*.json")):  # synth doc ids sort as their files do
        if path.name.endswith(".pred.json"):
            continue
        result, records = reference_decode(
            path.read_bytes(),
            pred if case.tagger == "import" else None,
            corrections=case.corrections,
            separators=case.separators,
            threshold=0.4 if case.y_overlap is None else case.y_overlap,
        )
        names.append(f"{path.stem}.result.json")
        assert (out / names[-1]).read_bytes() == result.encode("utf-8"), path.name
        audit += records
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    assert (out / "corrections.jsonl").read_bytes() == "".join(audit).encode("utf-8")


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

    @pytest.mark.parametrize("bar", ["nan", "-1", "1.5"])
    def test_min_f1_outside_the_unit_interval_is_a_usage_error(
        self, corpus_dir, results_dir, bar
    ):
        proc = run_module(
            "eval", "--results", results_dir, "--truth", corpus_dir, "--min-f1", f"codes={bar}"
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"ERROR receipt_kie.cli: --min-f1 codes: {float(bar)} is not within [0, 1]"
        ]

    def test_repeated_min_f1_name_is_a_usage_error(self, corpus_dir, results_dir):
        # A later, lower bar under the singular alias does not replace the first.
        proc = run_module(
            "eval", "--results", results_dir, "--truth", corpus_dir,
            "--min-f1", "codes=0.9", "--min-f1", "code=0.5",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "ERROR receipt_kie.cli: --min-f1 sets one name twice: 'codes=0.9' and 'code=0.5'"
        ]

    @pytest.mark.parametrize("bar", ["0", "1"])
    def test_min_f1_of_zero_and_one_are_bars(self, corpus_dir, results_dir, bar):
        # Corrections recover every dropped code of this corpus: F1 is 1.
        assert run_cli(
            "eval", "--results", results_dir, "--truth", corpus_dir, "--min-f1", f"codes={bar}"
        ) == 0

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

    @pytest.mark.parametrize("through_link", [False, True])
    def test_a_failed_json_out_write_leaves_no_report_and_no_temporary_file(
        self, corpus_dir, results_dir, tmp_path, through_link
    ):
        pytest.importorskip("resource")
        limit = 64
        # The file size limit makes the report's write fail partway, as a
        # full disk would.
        script = (
            "import resource, signal, sys\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
            "from receipt_kie.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        out = tmp_path / "out"
        out.mkdir()
        report_path = out / "report.json"
        target = tmp_path / "kept" / "report.json"
        if through_link:
            target.parent.mkdir()
            target.write_text("stale\n")
            report_path.symlink_to(target)
        proc = subprocess.run(
            [
                sys.executable, "-c", script, "eval", "--results", results_dir,
                "--truth", corpus_dir, "--json-out", report_path,
            ],
            capture_output=True,
            text=True,
        )
        if through_link:
            assert report_path.is_symlink() and target.read_text() == "stale\n"
            assert [p.name for p in target.parent.iterdir()] == ["report.json"]
            assert [p.name for p in out.iterdir()] == ["report.json"]
        else:
            assert list(out.iterdir()) == []
        assert error_line(proc) == os_error_line(errno.EFBIG, report_path)

    def test_json_out_through_a_symlink_replaces_its_target(
        self, corpus_dir, results_dir, tmp_path
    ):
        target = tmp_path / "kept" / "report.json"
        target.parent.mkdir()
        target.write_text("stale\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        plain = tmp_path / "plain.json"
        for report_path in (link, plain):
            assert run_cli(
                "eval", "--results", results_dir, "--truth", corpus_dir, "--json-out", report_path
            ) == 0
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == plain.read_bytes() != b""
        assert sorted(p.name for p in target.parent.iterdir()) == ["report.json"]

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
            # The donor page is of another height: the sizes differ first.
            other = json.loads(donor.read_text())
            size, donor_size = (f"{p['page']['width']}x{p['page']['height']}" for p in (payload, other))
            assert size != donor_size
            payload = {**other, "doc_id": payload["doc_id"]}
            problem = f": page {donor_size} differs (truth has {size})"
        else:
            payload["tokens"][5]["bbox"]["y_min"] -= 0.001
            problem = ": token 5 differs"
        victim.write_text(json.dumps(payload))
        for flags in (["--results", bad], ["--results", results_dir, "--compare", bad]):
            proc = run_module("eval", *flags, "--truth", corpus_dir)
            assert proc.returncode == 1
            [error] = proc.stderr.splitlines()
            assert error.startswith(f"ERROR receipt_kie.cli: {victim}: not decoded from the truth page")
            assert problem in error

    def test_result_of_another_page_size_fails(self, corpus_dir, results_dir, tmp_path):
        # Its doc id and boxes are those of its truth page; only the width differs.
        bad = tmp_path / "bad"
        bad.mkdir()
        for path in results_dir.glob("*.result.json"):
            (bad / path.name).write_bytes(path.read_bytes())
        victim = sorted(bad.glob("*.result.json"))[0]
        payload = json.loads(victim.read_text())
        doc_id, width, height = payload["doc_id"], payload["page"]["width"], payload["page"]["height"]
        payload["page"]["width"] = 5
        victim.write_text(json.dumps(payload))
        error = error_line(run_module("eval", "--results", bad, "--truth", corpus_dir))
        assert error == (
            f"ERROR receipt_kie.cli: {victim}: not decoded from the truth page of doc_id "
            f"{doc_id!r}: page 5x{height} differs (truth has {width}x{height})"
        )

    def test_result_with_another_doc_id_fails(self, corpus_dir, results_dir, tmp_path):
        # Its boxes are those of its truth page; only the doc id differs,
        # and the error names the file.
        bad = tmp_path / "bad"
        bad.mkdir()
        for path in results_dir.glob("*.result.json"):
            (bad / path.name).write_bytes(path.read_bytes())
        victim = sorted(bad.glob("*.result.json"))[0]
        payload = json.loads(victim.read_text())
        payload["doc_id"] = "stranger"
        victim.write_text(json.dumps(payload))
        error = error_line(run_module("eval", "--results", bad, "--truth", corpus_dir))
        assert error.endswith(f"{victim}: no ground truth for doc_id 'stranger'")

    def test_a_page_whose_doc_id_is_not_its_file_name_is_named(
        self, corpus_dir, results_dir, tmp_path
    ):
        # The truth file agrees with its name and with the result: the
        # page is at fault.
        truth = tmp_path / "truth"
        truth.mkdir()
        for path in corpus_dir.glob("*.json"):
            (truth / path.name).write_bytes(path.read_bytes())
        first, second = sorted(p.name[: -len(".truth.json")] for p in truth.glob("*.truth.json"))[:2]
        page = truth / f"{first}.json"
        payload = json.loads(page.read_text())
        payload["doc_id"] = second
        page.write_text(json.dumps(payload))
        error = error_line(run_module("eval", "--results", results_dir, "--truth", truth))
        assert error == (
            f"ERROR receipt_kie.cli: {page}: the page is for doc_id {second!r}, "
            f"not {first!r} as its file name says"
        )

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
        # The truth is blamed, not the first result file.
        empty = tmp_path / "no-truth"
        empty.mkdir()
        error = error_line(run_module("eval", "--results", results_dir, "--truth", empty))
        assert error == f"ERROR receipt_kie.cli: no *.truth.json files in {empty}"

    def test_missing_truth_with_no_results_is_not_an_empty_report(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        typo = tmp_path / "typo"
        error = error_line(run_module("eval", "--results", results, "--truth", typo))
        assert error == f"ERROR receipt_kie.cli: no *.truth.json files in {typo}"

    def test_truth_doc_without_an_ocr_file_names_the_missing_file(
        self, corpus_dir, results_dir, tmp_path
    ):
        result = sorted(results_dir.glob("*.result.json"))[0]
        doc_id = result.name[: -len(".result.json")]
        truth = tmp_path / "truth"
        truth.mkdir()
        name = f"{doc_id}.truth.json"
        (truth / name).write_bytes((corpus_dir / name).read_bytes())
        error = error_line(run_module("eval", "--results", result, "--truth", truth))
        assert error == os_error_line(errno.ENOENT, truth / f"{doc_id}.json")

    @pytest.mark.parametrize("truth_arg", ["./truth/", "truth", "truth//", ".", "absolute"])
    @pytest.mark.parametrize("damage", ["missing-ocr", "truncated-truth"])
    def test_a_truth_file_is_named_as_pathlib_prints_it(
        self, corpus_dir, results_dir, tmp_path, monkeypatch, capsys, truth_arg, damage
    ):
        # Truth paths are joined as strings; the error line names the file
        # as Path(--truth) / name prints it.
        truth = tmp_path / "truth"
        truth.mkdir()
        for path in corpus_dir.glob("*.json"):
            (truth / path.name).write_bytes(path.read_bytes())
        result = sorted(results_dir.glob("*.result.json"))[0]
        doc_id = result.name[: -len(".result.json")]
        if damage == "missing-ocr":
            name = f"{doc_id}.json"
            (truth / name).unlink()
        else:
            name = f"{doc_id}.truth.json"
            (truth / name).write_bytes((truth / name).read_bytes()[:40])
        monkeypatch.chdir(truth if truth_arg == "." else tmp_path)
        truth_arg = str(truth) if truth_arg == "absolute" else truth_arg
        assert run_cli("eval", "--results", result, "--truth", truth_arg) == 1
        named = Path(truth_arg) / name
        error = capsys.readouterr().err
        if damage == "missing-ocr":
            assert error == os_error_line(errno.ENOENT, named) + "\n"
        else:
            assert error.startswith(f"ERROR receipt_kie.cli: {named}: ")
            assert error.count("\n") == 1

    @pytest.mark.parametrize("damage", [None, "malformed-truth", "missing-ocr"])
    def test_truth_doc_without_a_result_fails(self, corpus_dir, results_dir, tmp_path, damage):
        # The files of a truth doc that no result names are never read, so
        # a fault in them does not hide the missing result.
        truth = tmp_path / "truth"
        truth.mkdir()
        for path in corpus_dir.glob("*.json"):
            (truth / path.name).write_bytes(path.read_bytes())
        *results, victim = sorted(results_dir.glob("*.result.json"))
        doc_id = victim.name[: -len(".result.json")]
        if damage == "malformed-truth":
            (truth / f"{doc_id}.truth.json").write_text("{")
        elif damage == "missing-ocr":
            (truth / f"{doc_id}.json").unlink()
        error = error_line(run_module("eval", "--results", *results, "--truth", truth))
        assert error.endswith(f"no predictions for {doc_id}")

    @pytest.mark.parametrize("cpus, shares", [(1, [20]), (2, [10, 10])])
    def test_each_result_is_scored_before_the_next_is_read(
        self, corpus_dir, results_dir, tmp_path, monkeypatch, cpus, shares
    ):
        log = tmp_path / "calls.log"
        _log_steps(monkeypatch, log)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert run_cli("eval", "--results", results_dir, "--truth", corpus_dir) == 0
        calls = _logged_steps(log)
        # This process scores the first share, the helper the second.
        assert calls.pop(str(os.getpid())) == ["parse", "score"] * shares[0]
        assert list(calls.values()) == [["parse", "score"] * n for n in shares[1:]]

    def test_a_token_in_two_groups_is_refused(self, corpus_dir, results_dir, tmp_path):
        # Group 0 lists each of its tokens twice, and a copy of it follows
        # the last group.
        victim = tmp_path / sorted(results_dir.glob("*.result.json"))[0].name
        payload = json.loads((results_dir / victim.name).read_text())
        first = payload["products"][0]
        first["token_ids"] *= 2
        payload["products"].append(dict(first))
        victim.write_text(json.dumps(payload))
        error = error_line(run_module("eval", "--results", victim, "--truth", corpus_dir))
        tid = first["token_ids"][0]
        assert error == (
            f"ERROR receipt_kie.cli: {victim}: product 0: token id {tid} already belongs to product 0"
        )


def _log_steps(monkeypatch, log: Path) -> None:
    """Log each result parse and each document scored to ``log``, with its
    process: the helper's memory dies with it."""

    def logged(name, fn):
        def call(*args, **kwargs):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()} {name}\n")
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(cli, "parse_result", logged("parse", cli.parse_result))
    monkeypatch.setattr(
        evaluation, "_product_counts", logged("score", evaluation._product_counts)
    )


def _logged_steps(log: Path) -> dict[str, list[str]]:
    """The steps of each process that ``_log_steps`` logged, in order."""
    calls: dict[str, list[str]] = {}
    for line in log.read_text().splitlines():
        pid, step = line.split()
        calls.setdefault(pid, []).append(step)
    return calls


# --------------------------------------------------------------------------
# eval in two processes


_ERROR_CLASSES = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.ReceiptKieError)
]


@pytest.mark.parametrize("cls", _ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_package_error_survives_a_pickle_round_trip(cls, tmp_path):
    # An error crosses a process boundary as a pickle (multiprocessing
    # sends one so), also after _parse_file has put the file's path in
    # front of its message.
    path = tmp_path / "input.json"
    path.write_bytes(b"{}")

    def fail(data):
        raise cls("bad input")

    with pytest.raises(cls) as caught:
        cli._parse_file(path, fail)
    assert str(caught.value) == f"{path}: bad input"
    for exc in (cls("bad input"), caught.value):
        copy = pickle.loads(pickle.dumps(exc))
        assert (type(copy), str(copy)) == (type(exc), str(exc))
        assert vars(copy) == vars(exc)


def _truncate(results: Path, truth: Path, doc_id: str) -> None:
    path = results / f"{doc_id}.result.json"
    path.write_bytes(path.read_bytes()[:50])


def _copy_off_its_page(results: Path, truth: Path, doc_id: str) -> None:
    # Read alone, the copy fails the page check after its doc id was read.
    payload = json.loads((results / f"{doc_id}.result.json").read_bytes())
    box = payload["tokens"][-1]["bbox"]
    box["y_max"] = (box["y_min"] + box["y_max"]) / 2
    (results / "zz-copy.result.json").write_text(json.dumps(payload))


# Each damage to the result of one doc id, done to the 4th (read by this
# process) or to the 16th (read by the helper) of the module's 20 results.
# A copy named "0-copy" sorts first, one named "zz-copy" last.
_DAMAGES = {
    "truncated result": _truncate,
    "missing OCR file": lambda results, truth, doc_id: (truth / f"{doc_id}.json").unlink(),
    "duplicate doc id": lambda results, truth, doc_id: shutil.copy(
        results / f"{doc_id}.result.json", results / "zz-copy.result.json"
    ),
    "duplicate doc id read first": lambda results, truth, doc_id: shutil.copy(
        results / f"{doc_id}.result.json", results / "0-copy.result.json"
    ),
    "duplicate doc id off its page": _copy_off_its_page,
    "result with no truth": (
        lambda results, truth, doc_id: (truth / f"{doc_id}.truth.json").unlink()
    ),
    "truth doc with no result": (
        lambda results, truth, doc_id: (results / f"{doc_id}.result.json").unlink()
    ),
}


class TestTwoProcessEval:
    """With two CPUs, eval forks a helper that scores the second half of
    the results; stdout, ``--json-out``, the exit code and the error are
    those of one process."""

    @pytest.fixture(scope="class")
    def raw_results_dir(self, corpus_dir, tmp_path_factory) -> Path:
        out = tmp_path_factory.mktemp("results-raw")
        assert run_cli(
            "decode", corpus_dir / "pred", "--out", out, "--no-corrections",
            "--tagger", "import", "--predictions", corpus_dir / "pred",
        ) == 0
        return out

    @staticmethod
    def outcome(argv, cpus, tmp_path, monkeypatch, capsys, missing=None):
        """Exit code (or the ``ValueError`` raised), stdout, stderr and the
        ``--json-out`` bytes of ``eval`` with ``cpus`` CPUs and without the
        ``os`` function ``missing``, and the number of helpers it forked.
        No child is left behind."""
        forks = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(os, "fork", lambda fork=os.fork: forks.append(1) or fork())
        if missing:
            monkeypatch.delattr(os, missing)
        json_out = tmp_path / f"report-{cpus}.json"
        try:
            code = run_cli("eval", *argv, "--json-out", json_out)
        except ValueError as exc:
            code = (type(exc), str(exc))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        out, err = capsys.readouterr()
        return (code, out, err, json_out.read_bytes() if json_out.exists() else None), len(forks)

    def assert_same_in_both(self, argv, tmp_path, monkeypatch, capsys, forks=1):
        one, none_forked = self.outcome(argv, 1, tmp_path, monkeypatch, capsys)
        two, forked = self.outcome(argv, 2, tmp_path, monkeypatch, capsys)
        assert (none_forked, forked) == (0, forks)
        assert two == one
        return one

    @pytest.mark.parametrize("flags, first_line", [
        (["--mode", "tag"], "mode: tag   documents: 20"),
        (["--mode", "strict"], "mode: strict   documents: 20"),
        (["--compare"], "run "),
    ])
    def test_a_clean_corpus(
        self, corpus_dir, results_dir, raw_results_dir, tmp_path, monkeypatch, capsys,
        flags, first_line,
    ):
        if flags == ["--compare"]:
            flags = ["--compare", raw_results_dir]
        argv = ["--results", results_dir, "--truth", corpus_dir, *flags]
        code, out, err, report = self.assert_same_in_both(
            argv, tmp_path, monkeypatch, capsys, forks=2 if "--compare" in flags else 1
        )
        assert (code, err) == (0, "")
        assert out.startswith(first_line)

    @pytest.mark.parametrize("index", [3, 15])
    @pytest.mark.parametrize("damage", _DAMAGES)
    def test_a_damaged_corpus(
        self, corpus_dir, results_dir, tmp_path, monkeypatch, capsys, damage, index
    ):
        results, truth = tmp_path / "results", tmp_path / "truth"
        results.mkdir()
        truth.mkdir()
        for path in results_dir.glob("*.result.json"):
            (results / path.name).write_bytes(path.read_bytes())
        for path in corpus_dir.glob("*.json"):
            (truth / path.name).write_bytes(path.read_bytes())
        doc_id = sorted(results.iterdir())[index].name[: -len(".result.json")]
        _DAMAGES[damage](results, truth, doc_id)
        argv = ["--results", results, "--truth", truth]
        code, out, err, report = self.assert_same_in_both(argv, tmp_path, monkeypatch, capsys)
        assert code == 1
        assert err.startswith("ERROR receipt_kie.cli: ") and err.count("\n") == 1

    @pytest.mark.parametrize("index", [3, 15])
    def test_a_value_error_propagates(
        self, corpus_dir, results_dir, tmp_path, monkeypatch, capsys, index
    ):
        victim = sorted(results_dir.glob("*.result.json"))[index].name[: -len(".result.json")]
        parse = cli.parse_ground_truth

        def failing(data, page):
            if page.doc_id == victim:
                raise ValueError(f"no truth for {page.doc_id} today")
            return parse(data, page)

        monkeypatch.setattr(cli, "parse_ground_truth", failing)
        argv = ["--results", results_dir, "--truth", corpus_dir]
        code, out, err, report = self.assert_same_in_both(argv, tmp_path, monkeypatch, capsys)
        assert code == (ValueError, f"no truth for {victim} today")
        assert (out, err, report) == ("", "", None)

    # macOS has no sched_getaffinity: the CPUs are counted by os.cpu_count().
    # Windows has no fork either: one process scores every file.
    @pytest.mark.parametrize("missing, forks", [("sched_getaffinity", 1), ("fork", 0)])
    def test_a_platform_without(
        self, corpus_dir, results_dir, tmp_path, monkeypatch, capsys, missing, forks
    ):
        argv = ["--results", results_dir, "--truth", corpus_dir]
        one, _ = self.outcome(argv, 1, tmp_path, monkeypatch, capsys)
        two, forked = self.outcome(argv, 2, tmp_path, monkeypatch, capsys, missing)
        assert (two, forked) == (one, forks)
        assert (one[0], one[2]) == (0, "")

    @pytest.mark.parametrize("end", [
        pytest.param(lambda: os.kill(os.getpid(), signal.SIGKILL), id="killed"),
        pytest.param(lambda: os._exit(3), id="exited"),
    ])
    def test_a_helper_that_ends_without_its_report(
        self, corpus_dir, results_dir, tmp_path, monkeypatch, capsys, end
    ):
        # This process scores the half that the helper did not send.
        parent, build = os.getpid(), cli.build_report

        def ending_in_the_helper(pairs, mode):
            if os.getpid() != parent:
                end()
            return build(pairs, mode)

        monkeypatch.setattr(cli, "build_report", ending_in_the_helper)
        argv = ["--results", results_dir, "--truth", corpus_dir]
        code, out, err, report = self.assert_same_in_both(argv, tmp_path, monkeypatch, capsys)
        assert (code, err) == (0, "")

    def test_a_failing_helper_is_read_again_up_to_its_fault(
        self, corpus_dir, results_dir, tmp_path, monkeypatch, capsys
    ):
        # The 16th of 20 results is truncated: the helper stops there and
        # sends nothing. This process scores its 10 results, then reads the
        # helper's again up to the fault, and no further.
        results = _damaged_results(results_dir, tmp_path / "results", victim=15)
        log = tmp_path / "calls.log"
        _log_steps(monkeypatch, log)
        argv = ["--results", results, "--truth", corpus_dir]
        (code, out, err, report), forked = self.outcome(argv, 2, tmp_path, monkeypatch, capsys)
        assert (code, forked) == (1, 1)
        assert err.startswith(f"ERROR receipt_kie.cli: {sorted(results.iterdir())[15]}: ")
        calls = _logged_steps(log)
        up_to_the_fault = ["parse", "score"] * 5 + ["parse"]
        assert calls.pop(str(os.getpid())) == ["parse", "score"] * 10 + up_to_the_fault
        assert list(calls.values()) == [up_to_the_fault]


# --------------------------------------------------------------------------
# the collector pause


@pytest.fixture(scope="module")
def bad_inputs_dir(corpus_dir, tmp_path_factory) -> Path:
    """A good OCR file, then a truncated one, then one whose first word
    has a vertex off the page: the last two fail to parse."""
    out = tmp_path_factory.mktemp("bad-inputs")
    doc_id = json.loads((corpus_dir / "manifest.json").read_text())["doc_ids"][0]
    payload = (corpus_dir / f"{doc_id}.json").read_bytes()
    (out / "a-good.json").write_bytes(payload)
    (out / "b-truncated.json").write_bytes(payload[:100])
    off_page = json.loads(payload)
    off_page["doc_id"] = "off-page"
    off_page["words"][0]["polygon"][0] = [2 * off_page["page"]["width"], 0]
    (out / "c-off-page.json").write_text(json.dumps(off_page))
    return out


@pytest.fixture(scope="module")
def long_receipt(tmp_path_factory) -> Path:
    """One receipt of 200 products (about 1.8k words), and its truth."""
    out = tmp_path_factory.mktemp("long")
    assert run_cli("synth", "--out", out, "--seed", "7", "--docs", "1", "--products", "200:200") == 0
    return out


def _damaged_results(results_dir: Path, out: Path, victim: int = 0) -> Path:
    """``results_dir``'s results with the one at index ``victim`` truncated."""
    out.mkdir()
    for i, path in enumerate(sorted(results_dir.glob("*.result.json"))):
        (out / path.name).write_bytes(path.read_bytes()[: 50 if i == victim else None])
    return out


# File names whose order differs between a sort by bytes, by case and by
# Unicode form: a name that extends another, mixed case, composed and
# decomposed accents, digits, punctuation.
_AWKWARD_STEMS = ["a", "a.json", "A", "b", "B", "_", "a-b", "a.b", "\u00e9", "e\u0301", "z", "Z",
                  "\u00e4", "10", "9"]


class TestInputOrder:
    """A directory's files are read in the order of their sorted paths."""

    def test_decode_reads_a_directory_in_path_order(self, tmp_path, capsys):
        inputs = tmp_path / "in"
        inputs.mkdir()
        for stem in _AWKWARD_STEMS:
            (inputs / f"{stem}.json").write_text("{")
        expected = sorted(inputs.iterdir())
        assert cli._expand([str(inputs)], cli._is_ocr_input) == expected
        assert run_cli("decode", inputs, "--out", tmp_path / "out") == 1
        prefix = "ERROR receipt_kie.cli: "
        lines = capsys.readouterr().err.splitlines()
        assert [Path(line.removeprefix(prefix).split(": ")[0]) for line in lines] == expected

    def test_eval_reads_a_directory_in_path_order(self, corpus_dir, results_dir, tmp_path, capsys):
        result = sorted(results_dir.glob("*.result.json"))[0]
        doc_id = result.name[: -len(".result.json")]
        results = tmp_path / "results"
        results.mkdir()
        for stem in _AWKWARD_STEMS:
            (results / f"{stem}.result.json").write_bytes(result.read_bytes())
        expected = sorted(results.iterdir())
        assert cli._expand([str(results)], lambda p: p.name.endswith(".result.json")) == expected
        # Every copy has one doc id: the second file read is refused, naming the first.
        assert run_cli("eval", "--results", results, "--truth", corpus_dir) == 1
        first, second = expected[:2]
        assert capsys.readouterr().err == (
            f"ERROR receipt_kie.cli: {second}: duplicate doc_id {doc_id!r} "
            f"(already read from {first})\n"
        )


# Each command's argv and exit code, from the module's corpora and the
# test's temporary directory.
_COMMANDS = {
    "decode heuristic": lambda c, r, bad, tmp: (["decode", c, "--out", tmp / "out"], 0),
    "decode import": lambda c, r, bad, tmp: ([
        "decode", c / "pred", "--out", tmp / "out",
        "--tagger", "import", "--predictions", c / "pred",
    ], 0),
    "decode bad inputs": lambda c, r, bad, tmp: (["decode", bad, "--out", tmp / "out"], 1),
    "decode bad inputs fail-fast": lambda c, r, bad, tmp: (
        ["decode", bad, "--out", tmp / "out", "--fail-fast"], 1
    ),
    "decode a missing file": lambda c, r, bad, tmp: (
        ["decode", tmp / "missing.json", "--out", tmp / "out"], 1
    ),
    "eval": lambda c, r, bad, tmp: (["eval", "--results", r, "--truth", c], 0),
    "eval a damaged result": lambda c, r, bad, tmp: (
        ["eval", "--results", _damaged_results(r, tmp / "damaged"), "--truth", c], 1
    ),
    # The last of the 20 results is read by the helper process, which sends
    # its error back.
    "eval a damaged last result": lambda c, r, bad, tmp: (
        ["eval", "--results", _damaged_results(r, tmp / "damaged", 19), "--truth", c], 1
    ),
}


@pytest.fixture(params=_COMMANDS)
def command(request, corpus_dir, results_dir, bad_inputs_dir, tmp_path):
    """``(argv, exit code)`` of one decode or eval command."""
    return _COMMANDS[request.param](corpus_dir, results_dir, bad_inputs_dir, tmp_path)


def garbage(argv, code) -> int:
    """The objects that a second run of ``argv`` leaves in reference cycles.
    With the collector off, whatever a command leaves in a cycle stays
    until the next collection finds it. The first run builds argparse's
    parser, whose help formatters do hold cycles, once per process."""
    assert run_cli(*argv) == code
    gc.collect()
    gc.disable()
    try:
        assert run_cli(*argv) == code
    finally:
        unreachable = gc.collect()
        gc.enable()
    return unreachable


def test_decode_and_eval_make_no_reference_cycles(command):
    assert garbage(*command) == 0


def test_eval_json_out_leaves_the_same_garbage_for_2_results_as_for_20(
    corpus_dir, results_dir, tmp_path
):
    # json.dumps(indent=2) runs the pure-Python encoder, whose closures refer
    # to each other: --json-out leaves a cycle once per run, never one per
    # document, which the collector pause needs.
    results, truth = tmp_path / "results", tmp_path / "truth"
    results.mkdir()
    truth.mkdir()
    for path in sorted(results_dir.glob("*.result.json"))[:2]:
        (results / path.name).write_bytes(path.read_bytes())
        doc_id = path.name[: -len(".result.json")]
        for name in (f"{doc_id}.json", f"{doc_id}.truth.json"):
            (truth / name).write_bytes((corpus_dir / name).read_bytes())
    json_out = ["--json-out", tmp_path / "report.json"]
    two = garbage(["eval", "--results", results, "--truth", truth, *json_out], 0)
    twenty = garbage(["eval", "--results", results_dir, "--truth", corpus_dir, *json_out], 0)
    assert two == twenty


class TestCollectorPause:
    @pytest.fixture()
    def states(self, monkeypatch) -> list[bool]:
        """``gc.isenabled()`` at each call of the readers and the writer
        that the CLI runs for one document."""
        states: list[bool] = []

        def recording(fn):
            def call(*args, **kwargs):
                states.append(gc.isenabled())
                return fn(*args, **kwargs)

            return call

        for name in ("parse_ocr", "parse_result", "serialize_result"):
            monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
        return states

    @pytest.mark.parametrize("name", [name for name in _COMMANDS if "missing" not in name])
    def test_the_collector_is_off_in_each_document_and_on_after(
        self, corpus_dir, results_dir, bad_inputs_dir, tmp_path, states, name
    ):
        argv, code = _COMMANDS[name](corpus_dir, results_dir, bad_inputs_dir, tmp_path)
        assert gc.isenabled()
        assert run_cli(*argv) == code
        assert gc.isenabled()
        assert states
        assert not any(states)

    def test_a_caller_who_turned_the_collector_off_finds_it_off(self, command):
        argv, code = command
        gc.disable()
        try:
            assert run_cli(*argv) == code
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_a_suspended_or_closed_eval_reader_leaves_the_collector_on(
        self, corpus_dir, results_dir
    ):
        files = sorted(results_dir.glob("*.result.json"))
        truth_ids = {path.name[: -len(".truth.json")] for path in corpus_dir.glob("*.truth.json")}
        pairs = cli._read_pairs(files, corpus_dir, truth_ids, {})
        next(pairs)
        assert gc.isenabled()
        pairs.close()
        assert gc.isenabled()

    @pytest.mark.parametrize("name", ["decode", "eval"])
    def test_a_long_receipt_runs_at_most_one_collection(self, long_receipt, tmp_path, name):
        # About 1.8k words: with the collector on inside the document, a
        # decode or an eval of it runs more than thirty collections.
        argv = {
            "decode": ["decode", long_receipt, "--out", tmp_path / "out"],
            "eval": ["eval", "--results", tmp_path / "out", "--truth", long_receipt],
        }
        assert run_cli(*argv["decode"]) == 0
        assert run_cli(*argv[name]) == 0  # the warm-up run
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            assert run_cli(*argv[name]) == 0
        finally:
            gc.callbacks.remove(count)
        assert len(starts) <= 1


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
        # Two words on a 600x400 page, and one word on another 600x400 page
        # that says it is the same document.
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
        (tmp_path / "other.json").write_text(json.dumps(page(600, 400, [("SOAP", 0, 0)])))
        assert run_cli("decode", tmp_path / "r.json", "--out", tmp_path / "out") == 0
        result_path = tmp_path / "out" / "r.result.json"
        svg_path = tmp_path / "r.svg"
        proc = run_module("render", result_path, tmp_path / "other.json", "--out", svg_path)
        assert error_line(proc).endswith(
            f"{result_path}: not decoded from the OCR page of doc_id 'r': "
            "token 0 differs (2 tokens, OCR has 1)"
        )
        assert not svg_path.exists()

    def test_result_of_another_page_size_is_one_error_line(self, rendered, tmp_path):
        # The result's doc id and boxes are those of its OCR page; only the
        # width differs.
        result_path, _ = rendered
        ocr_path = result_path.parent.parent / "render-demo.json"
        payload = json.loads(result_path.read_text())
        payload["page"]["width"] = 5
        result_path.write_text(json.dumps(payload))
        svg_path = tmp_path / "narrow.svg"
        proc = run_module("render", result_path, ocr_path, "--out", svg_path)
        assert error_line(proc) == (
            f"ERROR receipt_kie.cli: {result_path}: not decoded from the OCR page of doc_id "
            "'render-demo': page 5x400 differs (OCR has 600x400)"
        )
        assert not svg_path.exists()

    def test_unwritable_out_path_is_one_error_line(self, rendered, tmp_path):
        result_path, _ = rendered
        ocr_path = result_path.parent.parent / "render-demo.json"
        svg_path = tmp_path / "missing" / "demo.svg"
        proc = run_module("render", result_path, ocr_path, "--out", svg_path)
        assert str(svg_path) in error_line(proc)

    def test_out_through_a_symlink_replaces_its_target(self, rendered, tmp_path):
        result_path, svg_path = rendered
        ocr_path = result_path.parent.parent / "render-demo.json"
        target = tmp_path / "kept" / "demo.svg"
        target.parent.mkdir()
        target.write_text("stale\n")
        link = tmp_path / "link.svg"
        link.symlink_to(target)
        assert run_cli("render", result_path, ocr_path, "--out", link) == 0
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == svg_path.read_bytes()
        assert sorted(p.name for p in target.parent.iterdir()) == ["demo.svg"]

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


@pytest.mark.parametrize("command", ["decode", "eval", "render"])
def test_a_symlink_loop_at_an_output_path_is_one_error_line(
    command, corpus_dir, results_dir, tmp_path, capsys
):
    # a -> b -> a names no file: nothing is written there, and no
    # temporary file is left beside it.
    loop = tmp_path / "loop"
    loop.mkdir()
    (loop / "a").symlink_to("b")
    (loop / "b").symlink_to("a")
    doc_id = json.loads((corpus_dir / "manifest.json").read_text())["doc_ids"][0]
    page, result = corpus_dir / f"{doc_id}.json", results_dir / f"{doc_id}.result.json"
    argv = {
        "decode": ["decode", page, "--out", tmp_path / "out", "--audit", loop / "a"],
        "eval": ["eval", "--results", results_dir, "--truth", corpus_dir, "--json-out", loop / "a"],
        "render": ["render", result, page, "--out", loop / "a"],
    }[command]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.splitlines() == [os_error_line(errno.ELOOP, loop / "a")]
    assert sorted(p.name for p in loop.iterdir()) == ["a", "b"]
    assert (loop / "a").is_symlink() and (loop / "b").is_symlink()


# --------------------------------------------------------------------------
# byte-damaged inputs


# Spliced into a file as JSON text: values a reader must refuse by type or
# range, and bytes that are no JSON or no UTF-8.
_SPLICES = (
    b"1e400", b"NaN", b"-Infinity", b'"\\ud800"', b"\xff", b"18446744073709551616", b"-1",
    b"0.5", b"null", b"true", b'""', b"[]", b"{}", b"[[[[", b",",
)
_SCALAR = re.compile(rb'-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|"(?:[^"\\]|\\.)*"|true|false|null')


def _damage(data: bytes, rng: random.Random) -> bytes:
    """``data`` after 1-4 random edits, each a flipped bit, a cut, a splice
    inserted, or a JSON scalar swapped for a splice."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(out) + 1)
        edit = rng.randrange(4)
        if edit == 0 and at < len(out):
            out[at] ^= 1 << rng.randrange(8)
        elif edit == 1:
            del out[at : at + rng.choice((1, 16, len(out)))]
        elif edit == 2:
            out[at:at] = rng.choice(_SPLICES)
        elif scalars := list(_SCALAR.finditer(out)):
            found = rng.choice(scalars)
            out[found.start() : found.end()] = rng.choice(_SPLICES)
    return bytes(out)


@pytest.fixture(scope="module")
def damage_dir(tmp_path_factory) -> Path:
    """Two synth receipts with their predictions, and their results."""
    root = tmp_path_factory.mktemp("damage")
    corpus = root / "corpus"
    assert run_cli(
        "synth", "--out", corpus, "--seed", "3", "--docs", "2", "--fn-rate", "price=0.5"
    ) == 0
    assert run_cli(
        "decode", corpus / "pred", "--out", root / "results",
        "--tagger", "import", "--predictions", corpus / "pred",
    ) == 0
    return root


@pytest.mark.parametrize("seed, command", enumerate(
    ["decode heuristic", "decode import", "eval", "render"]
))
def test_byte_damaged_files_end_in_success_or_one_error_line(
    seed, command, damage_dir, tmp_path, monkeypatch, capsys
):
    # Each case damages one input file of the command. The command returns
    # 0 or 1 and raises nothing; on 1, stderr is one error line, which names
    # the damaged file if that file fails its own reader. No temporary file
    # is left. With two CPUs, eval's helper reads the second document.
    work = tmp_path / "work"
    shutil.copytree(damage_dir, work)
    corpus, pred, results = work / "corpus", work / "corpus" / "pred", work / "results"
    first, second = json.loads((corpus / "manifest.json").read_text())["doc_ids"]

    def page(path):
        return ingest.parse_ocr(path.read_bytes())

    def truth_reader(doc_id):
        return lambda data: ingest.parse_ground_truth(data, page(corpus / f"{doc_id}.json"))

    out = ["--out", tmp_path / "out"]
    argv, readers = {
        "decode heuristic": (
            ["decode", corpus / f"{first}.json", *out], {corpus / f"{first}.json": ingest.parse_ocr}
        ),
        "decode import": (
            ["decode", pred / f"{first}.json", *out, "--tagger", "import", "--predictions", pred],
            {
                pred / f"{first}.json": ingest.parse_ocr,
                pred / f"{first}.pred.json": lambda data: tagging.import_predictions(
                    page(pred / f"{first}.json"), data
                ),
            },
        ),
        "eval": (
            ["eval", "--results", results, "--truth", corpus, "--json-out", tmp_path / "r.json"],
            {
                **{results / f"{d}.result.json": ingest.parse_result for d in (first, second)},
                **{corpus / f"{d}.json": ingest.parse_ocr for d in (first, second)},
                **{corpus / f"{d}.truth.json": truth_reader(d) for d in (first, second)},
            },
        ),
        "render": (
            ["render", results / f"{first}.result.json", corpus / f"{first}.json",
             "--out", tmp_path / "r.svg"],
            {
                results / f"{first}.result.json": ingest.parse_result,
                corpus / f"{first}.json": ingest.parse_ocr,
            },
        ),
    }[command]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rng = random.Random(seed)
    for case in range(80):
        victim = rng.choice(sorted(readers))
        clean = victim.read_bytes()
        data = _damage(clean, rng)
        victim.write_bytes(data)
        try:
            code = run_cli(*argv)
        finally:
            victim.write_bytes(clean)
        err = capsys.readouterr().err
        where = f"case {case}: {victim.name} damaged to {data!r}"
        assert code in (0, 1), where
        if code == 0:
            assert err == "", where
        else:
            [line] = err.splitlines() or [""]
            assert line.startswith("ERROR receipt_kie.cli: "), where
            try:
                readers[victim](data)
            except errors.ReceiptKieError:
                assert str(victim) in line, where
        assert not list(tmp_path.rglob("*.tmp")), where
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


class TestParser:
    def test_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_is_not_built_at_import(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import receipt_kie.cli as cli; print(cli.build_parser.cache_info().currsize)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"


class TestStderrLines:
    """``main`` writes its lines to ``sys.stderr`` as it is at each call and
    sets up no logging. The root logger is emptied first, as it is in a
    program that has not configured logging."""

    def test_each_call_writes_to_the_stderr_it_runs_under(self, tmp_path, monkeypatch):
        monkeypatch.setattr(logging.getLogger(), "handlers", [])
        taken = tmp_path / "taken"
        taken.mkdir()
        (taken / "x").write_text("x")
        calls = [
            (["synth", "--out", taken], 1),
            (["decode", tmp_path, "--out", tmp_path / "o", "--tagger", "import"], 2),
        ]
        written = []
        for argv, code in calls:
            stream = io.StringIO()
            monkeypatch.setattr(sys, "stderr", stream)
            assert run_cli(*argv) == code
            written.append(stream.getvalue())
        assert written == [
            f"ERROR receipt_kie.cli: output directory {taken} is not empty (pass --force to overwrite)\n",
            "ERROR receipt_kie.cli: --tagger import requires --predictions\n",
        ]

    def test_a_usage_error_goes_to_the_stderr_of_its_own_call(self, monkeypatch):
        # The parser is built once; argparse looks up sys.stderr as it reports.
        written = []
        for _ in range(2):
            stream = io.StringIO()
            monkeypatch.setattr(sys, "stderr", stream)
            with pytest.raises(SystemExit) as exit_info:
                run_cli("decode")
            assert exit_info.value.code == 2
            written.append(stream.getvalue())
        assert written[1] == written[0]
        assert written[1].startswith("usage: receipt-kie decode ")

    def test_main_adds_no_handler_to_the_root_logger(self, tmp_path, monkeypatch, capsys):
        root = logging.getLogger()
        monkeypatch.setattr(root, "handlers", [])
        assert run_cli("decode", tmp_path, "--out", tmp_path / "o") == 0
        assert capsys.readouterr().err == f"WARNING receipt_kie.cli: no OCR input files found under {tmp_path}\n"
        assert root.handlers == []


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
