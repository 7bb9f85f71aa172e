from __future__ import annotations

import re
import shutil
from pathlib import Path

from receipt_kie.ingest import parse_result
from receipt_kie.synth import CorpusSpec, write_corpus

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Quick tour (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    manifest = write_corpus(CorpusSpec(seed=7, n_docs=1), tmp_path / "corpus")
    shutil.copy(tmp_path / "corpus" / f"{manifest['doc_ids'][0]}.json", tmp_path / "receipt.json")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    doc, groups = parse_result((tmp_path / "out.json").read_bytes())
    assert doc.doc_id == manifest["doc_ids"][0]
    assert len(capsys.readouterr().out.splitlines()) == len(groups) > 0
