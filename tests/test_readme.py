from __future__ import annotations

import re
import shlex
import shutil
from pathlib import Path

from receipt_kie import cli
from receipt_kie.ingest import parse_result
from receipt_kie.synth import CorpusSpec, write_corpus

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_section(title: str) -> str:
    """The README text from the ``## title`` heading to the next one."""
    return README.read_text(encoding="utf-8").split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_cli_quick_tour_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```sh\n(.*?)```", readme_section("Quick tour (CLI)"), re.S)
    commands = [
        line
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    assert [shlex.split(c)[1] for c in commands] == ["synth", "decode", "decode", "eval", "render"]
    monkeypatch.chdir(tmp_path)
    for command in commands:
        program, *argv = shlex.split(command)
        assert program == "receipt-kie"
        assert cli.main(argv) == 0, command
    out = capsys.readouterr().out
    assert out.startswith("wrote 200 documents to corpus (with pred/)\n")
    assert "results-raw" in out
    assert (tmp_path / "doc.svg").read_text(encoding="utf-8").startswith("<svg")


def test_library_quick_tour_runs(tmp_path, monkeypatch, capsys):
    code = re.search(r"```python\n(.*?)```", readme_section("Quick tour (library)"), re.S).group(1)
    manifest = write_corpus(CorpusSpec(seed=7, n_docs=1), tmp_path / "corpus")
    for suffix in (".json", ".truth.json"):
        name = f"{manifest['doc_ids'][0]}{suffix}"
        shutil.copy(tmp_path / "corpus" / name, tmp_path / f"receipt{suffix}")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    doc, groups = parse_result((tmp_path / "out.json").read_bytes())
    assert doc.doc_id == manifest["doc_ids"][0]
    # A line per group, then the report's header and its five rows.
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(groups) + 6 and len(groups) > 0
    assert out[len(groups)].split()[0] == "entity"
    assert out[-1].startswith("whole products")
