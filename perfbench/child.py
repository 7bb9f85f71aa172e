"""The measured process: runs receipt-kie commands again and again.

``python3 perfbench/child.py CONFIG.json`` is started by ``run.py`` in a
fresh interpreter with ``src`` on ``PYTHONPATH``. It first runs the
command over the whole corpus once and notes its peak memory. Then each
pass calls ``receipt_kie.cli.main`` once per configured command, which
together cover the corpus once; passes repeat until the configured
seconds have passed. A calibration burst runs between any two commands,
never inside one. With tracing on, every second pass is traced and the
spans are written to the configured file at the end. The report is one
JSON file.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

from calibrate import burst, speed_factor
from tracer import Tracer, layer_totals, write_spans


def _count_groups(counts: dict, groups) -> None:
    counts["groups"] = counts.get("groups", 0) + len(groups)
    counts["incomplete"] = counts.get("incomplete", 0) + sum(g.incomplete for g in groups)


def _count_fired(counts: dict, result) -> None:
    doc, records = result
    counts.setdefault("fired", []).extend((doc.doc_id, r.entity.value, r.token_id) for r in records)


def peak_rss_kb() -> int:
    """This process's peak resident memory. Unlike ``ru_maxrss``, which a
    process started by fork and exec inherits from its parent, VmHWM
    counts only the memory this program touched."""
    for line in Path("/proc/self/status").read_text(encoding="utf-8").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def make_tracer() -> Tracer:
    from receipt_kie import cli, evaluation, layout, tagging

    tracer = Tracer()
    tracer.patch(cli, "parse_ocr", "ingest.parse_ocr",
                 lambda c, doc: c.__setitem__("tokens", c.get("tokens", 0) + len(doc.tokens)))
    tracer.patch(cli, "serialize_result", "ingest.serialize_result")
    tracer.patch(cli, "parse_result", "ingest.parse_result", lambda c, r: _count_groups(c, r[1]))
    tracer.patch(cli, "parse_ground_truth", "ingest.parse_ground_truth")
    tracer.patch(tagging, "import_predictions", "tagging.import_predictions")
    tracer.patch(tagging, "heuristic_tag", "tagging.heuristic_tag")
    tracer.patch(cli, "detect_lines_geometric", "layout.detect_lines_geometric",
                 lambda c, lines: c.__setitem__("lines", c.get("lines", 0) + len(lines)))
    tracer.patch(cli, "group_product_lines", "layout.group_product_lines", _count_groups)
    # serialize_result imports assign_entities from the layout module at
    # call time; DocPrediction.from_groups uses evaluation's own binding.
    tracer.patch(layout, "assign_entities", "layout.assign_entities")
    tracer.patch(evaluation, "assign_entities", "layout.assign_entities")
    tracer.patch(cli, "apply_corrections", "corrections.apply_corrections", _count_fired)
    tracer.patch(evaluation.DocPrediction, "from_groups", "evaluation.from_groups", as_classmethod=True)
    tracer.patch(cli, "build_report", "evaluation.build_report")
    return tracer


def layer_metrics(spans: list[list], counts: dict, docs: int, speed: float) -> dict:
    """Per-layer figures of one traced pass; times are scaled to reference
    machine speed like docs_per_s."""
    total, own, calls = layer_totals(spans)

    def us(table: dict[str, int], name: str) -> float:
        return table.get(name, 0) / 1000 / docs / speed

    metrics = {f"{name}.us_per_doc": us(total, name) for name in (
        "ingest.parse_ocr", "ingest.parse_result", "ingest.parse_ground_truth",
        "tagging.import_predictions", "tagging.heuristic_tag",
        "layout.detect_lines_geometric", "layout.group_product_lines", "layout.assign_entities",
        "corrections.apply_corrections", "evaluation.from_groups", "evaluation.build_report",
    )}
    metrics["ingest.serialize_result.self_us_per_doc"] = us(own, "ingest.serialize_result")
    metrics["cli.self_us_per_doc"] = us(own, "cli.main")
    metrics["layout.assign_entities.calls_per_doc"] = calls.get("layout.assign_entities", 0) / docs
    metrics["layout.lines_per_doc"] = counts.get("lines", 0) / docs
    metrics["layout.groups_per_doc"] = counts.get("groups", 0) / docs
    metrics["layout.incomplete_groups_per_doc"] = counts.get("incomplete", 0) / docs
    metrics["tokens_per_doc"] = counts.get("tokens", 0) / docs
    return {
        "metrics": metrics,
        "wall_us_per_doc": us(total, "cli.main"),
        "self_us_per_doc": {name: us(own, name) for name in own},
    }


def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
    from receipt_kie import cli

    out = Path(cfg["out"])
    whole_argv = [arg.replace("{out}", str(out / "whole")) for arg in cfg["whole"]["argv"]]
    if cfg["mkdir"]:
        (out / "whole").mkdir(parents=True)
    t0 = perf_counter()
    rc = cli.main(whole_argv)
    whole = {"dir": str(out / "whole"), "commands": [{"rc": rc, "wall_s": perf_counter() - t0}]}
    peak_kb = peak_rss_kb()

    tracer = make_tracer() if cfg["trace_file"] else None
    docs = sum(command["docs"] for command in cfg["commands"])
    passes: list[dict] = []
    traced_spans: list[list[list]] = []
    layers: list[dict] = []
    fired: list = []
    before = burst()
    start = perf_counter()
    while len(passes) < cfg["min_passes"] or perf_counter() - start < cfg["seconds"]:
        pass_dir = out / f"pass-{len(passes)}"
        if cfg["mkdir"]:
            pass_dir.mkdir(parents=True)
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        runs = []
        for command in cfg["commands"]:
            argv = [arg.replace("{out}", str(pass_dir)) for arg in command["argv"]]
            t0 = perf_counter()
            rc = tracer.root("cli.main", cli.main, argv) if traced else cli.main(argv)
            wall = perf_counter() - t0
            after = burst()
            runs.append({"rc": rc, "wall_s": wall, "docs": command["docs"], "speed": speed_factor([before, after])})
            before = after
        if traced:
            tracer.uninstall()
            spans, counts = tracer.take()
            traced_spans.append(spans)
            layers.append(layer_metrics(spans, counts, docs, statistics.median(r["speed"] for r in runs)))
            fired = fired or counts.get("fired", [])
        passes.append({"dir": str(pass_dir), "traced": traced, "commands": runs})

    if tracer is not None:
        write_spans(cfg["trace_file"], traced_spans)
    report = {"whole": whole, "peak_rss_kb": peak_kb, "passes": passes, "layers": layers, "fired": fired}
    Path(cfg["report"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
