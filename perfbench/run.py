"""Benchmark of ``receipt-kie decode`` and ``receipt-kie eval``.

    python3 perfbench/run.py --workload receipts --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 15

Run from the root of a source checkout; ``perfbench/README.md`` describes
the workloads and metrics. Inputs are made with ``receipt_kie.synth`` from
``--seed`` before any timing starts. Then, each in a fresh interpreter
(``child.py``): one command over the whole corpus, whose peak memory is
reported, and for ``--seconds`` seconds whole passes over the corpus in
commands of a fixed number of documents, whose completion rate is
reported. All outputs are checked against ``oracle.py``. The last line
printed is one JSON object: ``correct``, ``attempted`` and ``failed``
documents, and the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``). A failed check exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import oracle
from calibrate import burst, speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
TRACES = WORK / "traces"
WORKLOADS = ("receipts", "long_receipts", "score")

RECEIPT_DOCS = 2000
FN_RATE = 0.3  # share of code, quantity and price labels dropped from the predictions
LONG_DOCS = 8
LONG_PRODUCTS = 200  # products per long receipt: about 1.8k tokens
# Documents per timed command. Short commands let the calibration bursts
# around each one follow the machine's changes of speed.
CHUNK_DOCS = {"receipts": 100, "score": 100, "long_receipts": 1}
SETUP_PROBES = 11
IMPORT_PROBE = "import time; t = time.perf_counter(); import receipt_kie.cli; print(time.perf_counter() - t)"
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "docs_per_s": "docs/s", "setup_s": "s", "peak_rss_mb": "MB", "f1_descriptions": "ratio",
    "f1_codes": "ratio", "f1_quantities": "ratio", "f1_prices": "ratio", "f1_whole_products": "ratio",
}
PER_LAYER_UNITS = {
    "ingest.parse_ocr.us_per_doc": "us", "ingest.serialize_result.self_us_per_doc": "us",
    "ingest.result_kb_per_doc": "KB", "ingest.parse_result.us_per_doc": "us",
    "ingest.parse_ground_truth.us_per_doc": "us", "tagging.import_predictions.us_per_doc": "us",
    "tagging.heuristic_tag.us_per_doc": "us", "layout.detect_lines_geometric.us_per_doc": "us",
    "layout.group_product_lines.us_per_doc": "us", "layout.assign_entities.calls_per_doc": "count",
    "layout.assign_entities.us_per_doc": "us", "layout.lines_per_doc": "count",
    "layout.groups_per_doc": "count", "layout.incomplete_groups_per_doc": "count",
    "corrections.apply_corrections.us_per_doc": "us",
    "corrections.fired.code": "count", "corrections.fired.quantity": "count", "corrections.fired.price": "count",
    "corrections.on_truth.code": "ratio", "corrections.on_truth.quantity": "ratio",
    "corrections.on_truth.price": "ratio", "evaluation.from_groups.us_per_doc": "us",
    "evaluation.build_report.us_per_doc": "us", "cli.self_us_per_doc": "us", "tokens_per_doc": "count",
    "trace.docs_per_s": "docs/s", "trace.untraced_docs_per_s": "docs/s",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # Installed packages import from cached bytecode; so do the probes of
    # setup_s, whatever the calling shell says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


# --------------------------------------------------------------------------
# inputs


def _link(src: Path, dst: Path) -> None:
    dst.parent.mkdir(parents=True, exist_ok=True)
    os.link(src, dst)


def make_inputs(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's corpus (for score, also the results to score),
    hard-link it into one directory per timed command, and return the
    commands and what the checks need to know."""
    from receipt_kie import cli
    from receipt_kie.synth import CorpusSpec, CorruptionSpec, write_corpus

    corpus, chunks = work / "corpus", work / "chunks"
    if workload == "long_receipts":
        spec = CorpusSpec(seed=seed, n_docs=LONG_DOCS, products_per_doc=(LONG_PRODUCTS, LONG_PRODUCTS))
        doc_ids = write_corpus(spec, corpus)["doc_ids"]
        inputs, predictions, files = ".", None, ("{}.json", "{}.truth.json")
    else:
        corruption = CorruptionSpec(code_fn_rate=FN_RATE, quantity_fn_rate=FN_RATE, price_fn_rate=FN_RATE)
        doc_ids = write_corpus(CorpusSpec(seed=seed, n_docs=RECEIPT_DOCS), corpus, corruption)["doc_ids"]
        inputs = predictions = "pred"
        files = ("{}.json", "{}.truth.json", "pred/{}.json", "pred/{}.pred.json")

    def decode(src: Path, out: str) -> list[str]:
        argv = ["decode", str(src / inputs), "--out", out]
        return argv + (["--tagger", "import", "--predictions", str(src / predictions)] if predictions else [])

    size = CHUNK_DOCS[workload]
    chunk_of = {doc_id: f"chunk-{i // size:03d}" for i, doc_id in enumerate(doc_ids)}
    for doc_id, chunk in chunk_of.items():
        for pattern in files:
            _link(corpus / pattern.format(doc_id), chunks / chunk / pattern.format(doc_id))
    names = sorted(set(chunk_of.values()))
    setup = {
        "doc_ids": doc_ids, "chunk_of": chunk_of, "chunks": names, "corpus": corpus,
        "inputs": corpus / inputs, "predictions": corpus / predictions if predictions else None,
        "whole": {"argv": decode(corpus, "{out}"), "docs": len(doc_ids)},
        "commands": [{"argv": decode(chunks / name, f"{{out}}/{name}"), "docs": size} for name in names],
        "mkdir": False,
    }
    if workload == "score":
        results = work / "results"
        if cli.main([arg.replace("{out}", str(results)) for arg in setup["whole"]["argv"]]) != 0:
            raise RuntimeError("decode of the corpus to score failed")
        for doc_id, chunk in chunk_of.items():
            _link(results / f"{doc_id}.result.json", chunks / chunk / "results" / f"{doc_id}.result.json")
        setup.update(results=results, mkdir=True, whole={
            "argv": ["eval", "--results", str(results), "--truth", str(corpus), "--json-out", "{out}/report.json"],
            "docs": len(doc_ids)}, commands=[
            {"argv": ["eval", "--results", str(chunks / name / "results"), "--truth", str(chunks / name),
                      "--json-out", f"{{out}}/{name}.json"], "docs": size} for name in names])
    return setup


def measure_setup_s() -> float:
    """Median time for a fresh interpreter to import the CLI, each probe
    scaled by the machine speed measured around it."""
    cmd = [sys.executable, "-c", IMPORT_PROBE]
    subprocess.run(cmd, env=child_env(), check=True, capture_output=True, timeout=60)  # writes bytecode
    before = burst()
    values = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, env=child_env(), check=True, capture_output=True, timeout=60)
        after = burst()
        values.append(float(out.stdout) / speed_factor([before, after]))
        before = after
    return statistics.median(values)


def run_child(setup: dict, work: Path, seconds: int, min_passes: int, trace_file: Path | None) -> dict:
    config = {
        "whole": setup["whole"], "commands": setup["commands"], "mkdir": setup["mkdir"],
        "out": str(work / "out"), "seconds": seconds, "min_passes": min_passes,
        "trace_file": str(trace_file) if trace_file else None, "report": str(work / "report.json"),
    }
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "child.py"), str(config_path)], env=child_env(),
                   stdout=subprocess.DEVNULL, check=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    return json.loads(Path(config["report"]).read_text(encoding="utf-8"))


# --------------------------------------------------------------------------
# checks


def _audit_by_doc(path: Path) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    if path.is_file():
        for line in path.read_text(encoding="utf-8").splitlines():
            out.setdefault(json.loads(line)["doc_id"], []).append(line)
    return out


def check_decode_doc(setup: dict, doc_id: str, data: bytes, audit: list[str], counts: dict) -> str | None:
    """Check one result file against the input it was decoded from and add
    its scores to ``counts``. Returns why the document fails, or None."""
    from receipt_kie.ingest import parse_result

    words = oracle.ocr_tokens(oracle.load(setup["inputs"] / f"{doc_id}.json"))
    truth = oracle.load(setup["corpus"] / f"{doc_id}.truth.json")
    if setup["predictions"] is not None:
        tagged = oracle.prediction_labels(oracle.load(setup["predictions"] / f"{doc_id}.pred.json"))
        source = "model"
    else:
        tagged, source = oracle.heuristic_labels(words), "heuristic"

    doc, _ = parse_result(data)
    read_back = [(t.token_id, t.text, (t.bbox.x_min, t.bbox.y_min, t.bbox.x_max, t.bbox.y_max)) for t in doc.tokens]
    if doc.doc_id != doc_id or read_back != [(i, text, box) for i, (text, box) in enumerate(words)]:
        return "result does not read back with the input's texts and boxes"

    raw = json.loads(data)
    labels = {t["token_id"]: t["label"] for t in raw["tokens"] if t["label"] != "untagged"}
    corrected = {t["token_id"] for t in raw["tokens"] if t.get("source") == "correction"}
    for tok in raw["tokens"]:
        want = tagged.get(tok["token_id"], "untagged")
        if tok["token_id"] not in corrected and (
                tok["label"] != want or tok.get("source") != (None if want == "untagged" else source)):
            return f"token {tok['token_id']} is {tok['label']!r}, the tagger's input says {want!r}"

    texts = [text for text, _ in words]
    audited = set()
    for product in raw["products"]:
        ids = product["token_ids"]
        pool = [texts[tid] for tid in ids if tid not in tagged]
        before = {tagged[tid] for tid in ids if tid in tagged}
        for tid in corrected.intersection(ids):
            if tid in tagged:
                return f"token {tid} was corrected over a tagger label"
            fault = oracle.correction_fault(labels.get(tid, "untagged"), texts[tid], pool, before)
            if fault:
                return fault
            audited.add((product["group_id"], labels[tid], tid))
    logged = {(r["group_id"], r["entity"], r["token_id"]) for r in map(json.loads, audit)}
    if audited != logged or len(corrected) != len(audited):
        return "audit log does not match the corrected tokens"

    want = oracle.truth_labels(truth)
    decoded, tagger_only = oracle.entity_counts(labels, want), oracle.entity_counts(tagged, want)
    for entity in oracle.ENTITIES:
        if decoded[entity][0] < tagger_only[entity][0]:
            return f"{entity} recall is below the tagger input's"
    oracle.score_result(raw, truth, counts)
    return None


def _decode_outputs(setup: dict, out: Path, chunked: bool) -> dict[str, tuple[bytes | None, list[str]]]:
    """Per document: its result file's bytes (None when missing) and its
    lines of the audit log."""
    audits: dict[Path, dict] = {}
    outputs = {}
    for doc_id in setup["doc_ids"]:
        where = out / setup["chunk_of"][doc_id] if chunked else out
        if where not in audits:
            audits[where] = _audit_by_doc(where / "corrections.jsonl")
        path = where / f"{doc_id}.result.json"
        outputs[doc_id] = (path.read_bytes() if path.is_file() else None, audits[where].get(doc_id, []))
    return outputs


def _digest(data: bytes | None, audit: list[str]) -> str | None:
    return None if data is None else hashlib.sha256(data + "".join(audit).encode()).hexdigest()


def _failed_chunks(setup: dict, p: dict, faults: list[str], label: str) -> set[str]:
    """The chunks whose command exited non-zero; all their documents fail."""
    bad = {chunk for chunk, c in zip(setup["chunks"], p["commands"]) if c["rc"] != 0}
    if bad:
        faults.append(f"{label}: non-zero exit for {sorted(bad)[:3]}")
    return bad


def check_decode(setup: dict, whole: dict, passes: list[dict]) -> tuple[list[int], dict, list[str]]:
    """Full checks on the whole-corpus command's outputs; every timed pass
    must reproduce them byte for byte. Returns the failed documents per
    pass, the corpus counts and the faults seen."""
    faults: list[str] = []
    counts: dict = {}
    reference: dict[str, str | None] = {}
    for doc_id, (data, audit) in _decode_outputs(setup, Path(whole["dir"]), chunked=False).items():
        try:
            fault = "no result" if data is None else check_decode_doc(setup, doc_id, data, audit, counts)
        except Exception as exc:  # a result the checks cannot read is a failed document
            fault = f"{type(exc).__name__}: {exc}"
        if fault:
            faults.append(f"{doc_id}: {fault}")
        reference[doc_id] = None if fault else _digest(data, audit)
    if whole["commands"][0]["rc"] != 0:
        faults.append("whole corpus: non-zero exit")
        reference = dict.fromkeys(reference)
    failed = [sum(v is None for v in reference.values())]
    for k, p in enumerate(passes):
        bad_chunks = _failed_chunks(setup, p, faults, f"pass {k}")
        bad = 0
        for doc_id, (data, audit) in _decode_outputs(setup, Path(p["dir"]), chunked=True).items():
            if reference[doc_id] is None or setup["chunk_of"][doc_id] in bad_chunks:
                bad += 1
            elif _digest(data, audit) != reference[doc_id]:
                bad += 1
                faults.append(f"pass {k}: {doc_id} differs from the whole-corpus command's output")
        failed.append(bad)
    return failed, counts, faults


def _report_counts(path: Path) -> dict | None:
    if not path.is_file():
        return None
    report = json.loads(path.read_bytes())
    rows = {e: report["entities"][oracle.PLURAL[e]] for e in oracle.ENTITIES}
    rows["whole_products"] = report["whole_products"]
    return {key: (row["tp"], row["fp"], row["fn"]) for key, row in rows.items()}


def check_score(setup: dict, whole: dict, passes: list[dict]) -> tuple[list[int], dict, list[str]]:
    """The counts in every eval report must equal the benchmark's own for
    the same documents, and every timed pass must repeat the first byte
    for byte."""
    own: dict[str, dict] = {chunk: {} for chunk in setup["chunks"]}
    for doc_id, chunk in setup["chunk_of"].items():
        oracle.score_result(oracle.load(setup["results"] / f"{doc_id}.result.json"),
                            oracle.load(setup["corpus"] / f"{doc_id}.truth.json"), own[chunk])
    total: dict = {}
    for counts in own.values():
        oracle.add_counts(total, counts)
    docs_in = Counter(setup["chunk_of"].values())

    faults: list[str] = []
    got = _report_counts(Path(whole["dir"]) / "report.json")
    if whole["commands"][0]["rc"] != 0 or got != total:
        faults.append(f"whole corpus: eval counts {got} differ from the benchmark's {total}")
    failed = [len(setup["doc_ids"]) if faults else 0]
    first: dict[str, bytes] = {}
    for k, p in enumerate(passes):
        bad_chunks = _failed_chunks(setup, p, faults, f"pass {k}")
        bad = 0
        for chunk in setup["chunks"]:
            path = Path(p["dir"]) / f"{chunk}.json"
            data = path.read_bytes() if path.is_file() else b""
            first.setdefault(chunk, data)
            if chunk in bad_chunks or data != first[chunk] or _report_counts(path) != own[chunk]:
                bad += docs_in[chunk]
                faults.append(f"pass {k}: {chunk}: eval report missing, changed or with wrong counts")
        failed.append(bad)
    return failed, total, faults


# --------------------------------------------------------------------------
# metrics


def docs_per_s(passes: list[dict]) -> float:
    """Median over timed commands of documents per second of the command's
    wall time, scaled to reference machine speed."""
    return statistics.median(c["docs"] * c["speed"] / c["wall_s"] for p in passes for c in p["commands"])


def f1_metrics(workload: str, counts: dict, whole: dict) -> dict[str, float]:
    if workload == "score":  # read from the program's own report
        report = json.loads((Path(whole["dir"]) / "report.json").read_bytes())
        values = {e: report["entities"][oracle.PLURAL[e]]["f1"] for e in oracle.ENTITIES}
        values["whole_products"] = report["whole_products"]["f1"]
    else:
        values = {key: oracle.f1(*row) for key, row in counts.items()}
    return {f"f1_{oracle.PLURAL.get(key, key)}": values[key] for key in (*oracle.ENTITIES, "whole_products")}


def trace_metrics(setup: dict, report: dict, whole: dict) -> dict[str, float]:
    layers = report["layers"]
    metrics = {name: statistics.median(layer["metrics"][name] for layer in layers) for name in layers[0]["metrics"]}
    result_dir = setup.get("results") or Path(whole["dir"])
    metrics["ingest.result_kb_per_doc"] = sum(
        (result_dir / f"{d}.result.json").stat().st_size for d in setup["doc_ids"]) / 1024 / len(setup["doc_ids"])
    truth = {d: oracle.truth_labels(oracle.load(setup["corpus"] / f"{d}.truth.json")) for d in setup["doc_ids"]}
    for entity in oracle.SCALARS:
        fired = [(d, tid) for d, e, tid in report["fired"] if e == entity]
        metrics[f"corrections.fired.{entity}"] = float(len(fired))
        metrics[f"corrections.on_truth.{entity}"] = (
            sum(truth[d].get(tid) == entity for d, tid in fired) / len(fired) if fired else 0.0)
    passes = report["passes"]
    metrics["trace.docs_per_s"] = docs_per_s([p for p in passes if p["traced"]])
    metrics["trace.untraced_docs_per_s"] = docs_per_s([p for p in passes if not p["traced"]])
    return metrics


def print_breakdown(workload: str, layers: list[dict]) -> None:
    """Self time per span name, as the median over traced passes, and how
    much of the traced wall time the self times account for."""
    wall = statistics.median(layer["wall_us_per_doc"] for layer in layers)
    names = sorted({name for layer in layers for name in layer["self_us_per_doc"]})
    selfs = {n: statistics.median(layer["self_us_per_doc"].get(n, 0.0) for layer in layers) for n in names}
    for name, value in sorted(selfs.items(), key=lambda item: -item[1]):
        print(f"{workload}: self {name:34s} {value:12.1f} us/doc {100 * value / wall:5.1f}%")
    worst = max(abs(sum(layer["self_us_per_doc"].values()) - layer["wall_us_per_doc"]) / layer["wall_us_per_doc"]
                for layer in layers)
    print(f"{workload}: self times add up to the traced wall time of {wall:.1f} us/doc "
          f"(largest gap in a pass {100 * worst:.2g}%)")


# --------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, int]:
    for stale in WORK.glob("*"):
        if stale != TRACES:
            shutil.rmtree(stale)
    work = WORK / f"{workload}-{seed}"
    work.mkdir(parents=True)
    try:
        setup = make_inputs(workload, seed, work)
        os.sync()  # keep write-back of the fresh corpus out of the timed commands
        setup_s = None if trace else measure_setup_s()
        trace_file = None
        if trace:
            TRACES.mkdir(parents=True, exist_ok=True)
            trace_file = TRACES / f"{workload}-{seed}.spans.jsonl"
        report = run_child(setup, work, seconds, 4 if trace else 2, trace_file)
        whole, passes = report["whole"], report["passes"]
        check = check_score if workload == "score" else check_decode
        failed, counts, faults = check(setup, whole, passes)
        for fault in faults[:20]:
            print(f"FAULT {workload}: {fault}", file=sys.stderr)
        if trace:
            values = trace_metrics(setup, report, whole)
            metrics = {name: (values[name], PER_LAYER_UNITS[name]) for name in sorted(values)}
            print_breakdown(workload, report["layers"])
            print(f"{workload}: tracing overhead {values['trace.untraced_docs_per_s'] / values['trace.docs_per_s'] - 1:+.1%} "
                  f"docs/s untraced against traced; spans in {trace_file.relative_to(ROOT)}")
        else:
            values = {"docs_per_s": docs_per_s(passes), "setup_s": setup_s,
                      "peak_rss_mb": report["peak_rss_kb"] / 1024, **f1_metrics(workload, counts, whole)}
            metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        docs = len(setup["doc_ids"])
        result = {
            "correct": not faults,
            "attempted": docs * (1 + len(passes)),
            "failed": sum(failed),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        for name, (value, unit) in metrics.items():
            print(f"{workload}: {name} = {value:.6g} {unit}")
        walls = [c["docs"] / c["wall_s"] for p in passes for c in p["commands"]]
        print(f"{workload}: {result['attempted']} documents attempted, {result['failed']} failed; "
              f"{len(passes)} passes of {len(setup['commands'])} commands; unscaled docs/s per command: "
              f"median {statistics.median(walls):.4g}, min {min(walls):.4g}, max {max(walls):.4g}")
        return result, 0 if result["correct"] else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sync()  # finish freeing the blocks before the next run times anything


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "receipt_kie" / "cli.py").is_file():
        print(f"no receipt_kie sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload != "all":
        result, code = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return code
    results, code = {}, 0
    for workload in WORKLOADS:
        results[workload], rc = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        code = code or rc
    print(json.dumps(results))
    return code


if __name__ == "__main__":
    sys.exit(main())
