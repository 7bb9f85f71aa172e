"""Command-line interface.

Four subcommands::

    receipt-kie decode  <ocr files/dirs> --out DIR [--tagger ...]
    receipt-kie eval    --results DIR --truth DIR [--mode ...]
    receipt-kie synth   --out DIR --seed N [corruption flags]
    receipt-kie render  RESULT_FILE OCR_FILE --out FILE.svg

``eval`` and ``render`` refuse a result whose doc id, token count or any
token box differs from those of the page it is read with.

Log verbosity is controlled by the ``RECEIPT_KIE_LOG`` environment
variable (error|warn|info|debug; default warn). All outputs are
deterministic: running the same command twice produces byte-identical
files.

Exit codes: 0 success; 1 input/processing failure; 2 flag validation
errors (argparse's convention) and ``eval --min-f1`` threshold misses.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence, TextIO

from . import __version__, tagging
from .corrections import NumericParseConfig, apply_corrections
from .errors import CorpusMismatchError, ReceiptKieError, TokenReferenceError
from .evaluation import (
    ENTITY_ORDER,
    ENTITY_PLURALS,
    DocPrediction,
    EvalReport,
    MatchMode,
    TruthEntry,
    build_report,
    format_rows,
)
from .ingest import (
    _load_object,
    _require,
    canonical_json,
    parse_ground_truth,
    parse_ocr,
    parse_result,
    serialize_result,
)
from .layout import GroupingConfig, detect_lines_geometric, group_product_lines
from .model import Document, EntityLabel
from .render import render_svg
from .synth import CorpusSpec, CorruptionSpec, write_corpus

log = logging.getLogger("receipt_kie.cli")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "warning": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

_PRED_SUFFIX = ".pred.json"
_RESERVED_SUFFIXES = (".truth.json", _PRED_SUFFIX, ".result.json")


def _configure_logging() -> None:
    raw = os.environ.get("RECEIPT_KIE_LOG", "warn").lower()
    level = _LOG_LEVELS.get(raw)
    if level is None:
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    if raw not in _LOG_LEVELS:
        log.warning("unknown RECEIPT_KIE_LOG value %r; using warn", raw)


def _is_ocr_input(path: Path) -> bool:
    if path.suffix != ".json" or path.name == "manifest.json":
        return False
    return not any(path.name.endswith(sfx) for sfx in _RESERVED_SUFFIXES)


def _expand(raw_paths: Sequence[str], wanted: Callable[[Path], bool]) -> list[Path]:
    """Each path that is not a directory, as given, and the sorted entries
    of each directory that ``wanted`` accepts."""
    files: list[Path] = []
    for raw in raw_paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(filter(wanted, path.iterdir())))
        else:
            files.append(path)
    return files


def _entity_names(target: Callable[[EntityLabel], str]) -> dict[str, str]:
    """Each entity's singular and plural name, both mapped to ``target(label)``."""
    return {
        name: target(label) for label in ENTITY_ORDER for name in (label.value, ENTITY_PLURALS[label])
    }


def _parse_rate_flags(pairs: Sequence[str], allowed: dict[str, str], flag: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs:
        name, sep, raw_value = pair.partition("=")
        key = allowed.get(name.strip().lower())
        if not sep or key is None:
            choices = ", ".join(sorted(set(allowed)))
            raise argparse.ArgumentTypeError(
                f"{flag} expects NAME=VALUE with NAME one of: {choices} (got {pair!r})"
            )
        try:
            value = float(raw_value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{flag}: {raw_value!r} is not a number") from None
        out[key] = value
    return out


@contextmanager
def _replacing(path: Path) -> Iterator[TextIO]:
    """A text file to write ``path``'s new contents to. It is a temporary
    file next to ``path``, renamed onto it once the block completes: a
    crash mid-write leaves no truncated file under the final name, and a
    failed write leaves no temporary file behind."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _parse_file(path: Path, parse: Callable[..., Any], *args: Any) -> Any:
    """``parse(contents of path, *args)``; a package error names the file."""
    try:
        return parse(path.read_bytes(), *args)
    except ReceiptKieError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


# --------------------------------------------------------------------------
# decode


def _decode_one(
    path: Path,
    tag: Callable[[Document], Document],
    grouping: GroupingConfig,
    parse_cfg: NumericParseConfig,
    corrections_enabled: bool,
) -> tuple[str, str, list]:
    doc = parse_ocr(path.read_bytes())
    tagged = tag(doc)
    lines = detect_lines_geometric(tagged, grouping)
    groups = group_product_lines(tagged, lines)
    records: list = []
    if corrections_enabled:
        tagged, records = apply_corrections(tagged, groups, parse_cfg)
    return doc.doc_id, serialize_result(tagged, groups), records


def _import_tagger(predictions: Path) -> Callable[[Document], Document]:
    """The tag function of ``--tagger import``.

    ``predictions`` is either one file, read here, for the doc id it names,
    or a directory whose ``<doc_id>.pred.json`` is read only when that
    document is tagged. A document without predictions fails with
    TokenReferenceError.
    """
    single: tuple[str, bytes] | None = None
    if not predictions.is_dir():
        data = predictions.read_bytes()
        single = (str(_require(_load_object(data), "doc_id", "top level")), data)

    def tag(doc: Document) -> Document:
        if single is None:
            path = predictions / f"{doc.doc_id}{_PRED_SUFFIX}"
            payload = path.read_bytes() if path.is_file() else None
        else:
            payload = single[1] if doc.doc_id == single[0] else None
        if payload is None:
            raise TokenReferenceError(f"no predictions loaded for doc_id {doc.doc_id!r}")
        return tagging.import_predictions(doc, payload)

    return tag


def cmd_decode(args: argparse.Namespace) -> int:
    try:
        grouping = GroupingConfig(y_overlap_threshold=args.y_overlap)
        parse_cfg = NumericParseConfig(decimal_separators=tuple(args.decimal_separators))
    except ValueError as exc:
        log.error("%s", exc)
        return 2
    inputs = _expand(args.inputs, _is_ocr_input)
    if not inputs:
        log.warning("no OCR input files found under %s", ", ".join(args.inputs))
        return 0

    if args.tagger == "import":
        if not args.predictions:
            log.error("--tagger import requires --predictions")
            return 1
        try:
            tag = _import_tagger(Path(args.predictions))
        except (ReceiptKieError, OSError) as exc:
            log.error("%s: %s", args.predictions, exc)
            return 1
    else:
        tag = partial(tagging.heuristic_tag, config=parse_cfg)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    decoded: dict[str, tuple[Path, list]] = {}  # doc id -> (input, correction records)
    for path in inputs:
        try:
            doc_id, payload, records = _decode_one(
                path, tag, grouping, parse_cfg, not args.no_corrections
            )
            if doc_id in decoded:
                raise CorpusMismatchError(
                    f"duplicate doc_id {doc_id!r} (already decoded from {decoded[doc_id][0]})"
                )
            with _replacing(out_dir / f"{doc_id}.result.json") as fh:
                fh.write(payload)
        except (ReceiptKieError, OSError, ValueError) as exc:
            failures += 1
            log.error("%s: %s", path, exc)
            if args.fail_fast:
                break  # the results already written still get their audit
            continue
        decoded[doc_id] = (path, records)
        log.info("decoded %s -> %s.result.json (%d corrections)", path, doc_id, len(records))

    audit_path = Path(args.audit) if args.audit else out_dir / "corrections.jsonl"
    try:
        with _replacing(audit_path) as fh:
            for doc_id in sorted(decoded):
                for rec in decoded[doc_id][1]:
                    line = {"doc_id": doc_id, "group_id": rec.group_id, "entity": rec.entity.value,
                            "token_id": rec.token_id, "parsed_value": rec.parsed_value}
                    fh.write(json.dumps(line, sort_keys=True, ensure_ascii=False) + "\n")
    except OSError as exc:
        log.error("%s: %s", audit_path, exc)
        return 1
    return 1 if failures else 0


# --------------------------------------------------------------------------
# eval


def _check_same_page(path: Path, doc: Document, page: Document, page_name: str = "truth") -> None:
    """Refuse the result ``doc``, read from ``path``, unless it was decoded
    from ``page``: the doc id, the token count and every token box must
    match. Texts are not compared: OCR noise changes them, not the geometry."""
    boxes = [tok.bbox for tok in doc.tokens]
    page_boxes = [tok.bbox for tok in page.tokens]
    if doc.doc_id != page.doc_id:
        problem = f"the result is for doc_id {doc.doc_id!r}"
    elif boxes != page_boxes:
        pairs = enumerate(zip(boxes, page_boxes))
        first = next((i for i, (a, b) in pairs if a != b), min(len(boxes), len(page_boxes)))
        problem = f"token {first} differs ({len(boxes)} tokens, {page_name} has {len(page_boxes)})"
    else:
        return
    raise CorpusMismatchError(
        f"{path}: not decoded from the {page_name} page of doc_id {page.doc_id!r}: {problem}"
    )


def _load_results(
    results: Sequence[str], truth: dict[str, TruthEntry]
) -> dict[str, DocPrediction]:
    predictions: dict[str, DocPrediction] = {}
    seen: dict[str, Path] = {}
    for path in _expand(results, lambda p: p.name.endswith(".result.json")):
        doc, groups = _parse_file(path, parse_result)
        if doc.doc_id in seen:
            raise CorpusMismatchError(
                f"{path}: duplicate doc_id {doc.doc_id!r} (already read from {seen[doc.doc_id]})"
            )
        seen[doc.doc_id] = path
        if doc.doc_id in truth:
            _check_same_page(path, doc, truth[doc.doc_id][0])
        predictions[doc.doc_id] = DocPrediction.from_groups(doc, groups)
    return predictions


def _load_truth(truth_dir: Path) -> dict[str, TruthEntry]:
    truth: dict[str, TruthEntry] = {}
    for path in sorted(truth_dir.glob("*.truth.json")):
        doc_id = path.name[: -len(".truth.json")]
        ocr_path = truth_dir / f"{doc_id}.json"
        if not ocr_path.exists():
            raise CorpusMismatchError(f"no OCR file next to {path.name}")
        doc = _parse_file(ocr_path, parse_ocr)
        products = _parse_file(path, parse_ground_truth, doc)
        truth[doc_id] = (doc, products)
    return truth


# --min-f1 names map to the report's keys.
_MIN_F1_NAMES = {
    **_entity_names(ENTITY_PLURALS.__getitem__),
    **dict.fromkeys(("whole", "whole_products", "whole-products"), "whole_products"),
}


def _comparison_table(rows: list[tuple[str, EvalReport]]) -> str:
    table = [["run", *(ENTITY_PLURALS[label] for label in ENTITY_ORDER), "whole products"]]
    for name, report in rows:
        f1s = [report.entities[label].f1 for label in ENTITY_ORDER]
        table.append([name, *(f"{f1:.3f}" for f1 in [*f1s, report.whole_products.f1])])
    return format_rows(table)


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        thresholds = _parse_rate_flags(args.min_f1 or [], _MIN_F1_NAMES, "--min-f1")
    except argparse.ArgumentTypeError as exc:
        log.error("%s", exc)
        return 2

    mode = MatchMode.STRICT_OCR if args.mode == "strict" else MatchMode.TAG_ONLY
    truth = _load_truth(Path(args.truth))
    report = build_report(_load_results(args.results, truth), truth, mode)

    if args.compare:
        other = build_report(_load_results([args.compare], truth), truth, mode)
        primary_name = Path(args.results[0]).name or "results"
        other_name = Path(args.compare).name or "compare"
        print(_comparison_table([(primary_name, report), (other_name, other)]))
    else:
        print(f"mode: {mode.value}   documents: {report.corpus_size}")
        print(report.format_table())

    summary = report.as_dict()
    if args.json_out:
        Path(args.json_out).write_text(canonical_json(summary), encoding="utf-8")

    f1 = {key: counts["f1"] for key, counts in summary["entities"].items()}
    f1["whole_products"] = summary["whole_products"]["f1"]
    exit_code = 0
    for key in sorted(thresholds):
        achieved = f1[key]
        if achieved < thresholds[key]:
            print(f"FAIL --min-f1 {key}: {achieved:.3f} < {thresholds[key]:.3f}")
            exit_code = 2
    return exit_code


# --------------------------------------------------------------------------
# synth


# --fn-rate names map to CorruptionSpec fields.
_FN_RATE_NAMES = _entity_names(lambda label: f"{label.value}_fn_rate")


def cmd_synth(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    if out_dir.exists() and any(out_dir.iterdir()) and not args.force:
        log.error("output directory %s is not empty (pass --force to overwrite)", out_dir)
        return 1

    try:
        lo, _, hi = args.products.partition(":")
        products_range = (int(lo), int(hi or lo))
        spec = CorpusSpec(
            seed=args.seed,
            n_docs=args.docs,
            products_per_doc=products_range,
            multiline_description_prob=args.multiline_prob,
            code_presence_prob=args.code_prob,
            adversarial_rate=args.adversarial_rate,
        )
        fn_rates = _parse_rate_flags(args.fn_rate or [], _FN_RATE_NAMES, "--fn-rate")
        corruption = None
        if fn_rates or args.ocr_noise > 0.0:
            corruption = CorruptionSpec(ocr_noise_rate=args.ocr_noise, **fn_rates)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        log.error("%s", exc)
        return 2

    manifest = write_corpus(spec, out_dir, corruption)
    print(
        f"wrote {manifest['n_docs']} documents to {out_dir}"
        + (" (with pred/)" if corruption is not None else "")
    )
    return 0


# --------------------------------------------------------------------------
# render


def cmd_render(args: argparse.Namespace) -> int:
    result_path = Path(args.result)
    doc, groups = _parse_file(result_path, parse_result)
    _check_same_page(result_path, doc, _parse_file(Path(args.ocr), parse_ocr), "OCR")
    svg = render_svg(doc, groups)
    if args.out:
        Path(args.out).write_text(svg, encoding="utf-8")
    else:
        sys.stdout.write(svg)
    return 0


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="receipt-kie",
        description="Key information extraction for purchase documents.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="OCR JSON in, product groups out")
    p.add_argument("inputs", nargs="+", help="OCR JSON files or directories")
    p.add_argument("--out", required=True, help="directory for result files")
    p.add_argument("--tagger", choices=("heuristic", "import"), default="heuristic")
    p.add_argument("--predictions", help="prediction file or directory (for --tagger import)")
    p.add_argument("--no-corrections", action="store_true", help="skip the correction rules")
    p.add_argument("--y-overlap", type=float, default=0.4, help="line clustering threshold")
    p.add_argument("--decimal-separators", default=".,", help="accepted decimal separators")
    p.add_argument("--fail-fast", action="store_true", help="stop at the first bad input")
    p.add_argument("--audit", help="corrections audit log path (default OUT/corrections.jsonl)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="score results against ground truth")
    p.add_argument("--results", nargs="+", required=True, help="result files or directory")
    p.add_argument("--truth", required=True, help="directory with *.truth.json + OCR files")
    p.add_argument("--mode", choices=("tag", "strict"), default="tag")
    p.add_argument("--compare", help="second results directory for a side-by-side table")
    p.add_argument("--min-f1", action="append", metavar="NAME=F1",
                   help="fail (exit 2) if an entity's f1 is below the bar; repeatable")
    p.add_argument("--json-out", help="also write the report as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--docs", type=int, default=200)
    p.add_argument("--products", default="1:5", metavar="MIN:MAX")
    p.add_argument("--multiline-prob", type=float, default=0.35)
    p.add_argument("--code-prob", type=float, default=0.8)
    p.add_argument("--adversarial-rate", type=float, default=0.05)
    p.add_argument("--fn-rate", action="append", metavar="NAME=RATE",
                   help="per-entity false-negative rate; enables pred/ output")
    p.add_argument("--ocr-noise", type=float, default=0.0)
    p.add_argument("--force", action="store_true", help="overwrite a non-empty directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("render", help="render a result file to SVG")
    p.add_argument("result", help="a *.result.json file")
    p.add_argument("ocr", help="the matching OCR input file")
    p.add_argument("--out", help="SVG output path (default: stdout)")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReceiptKieError, OSError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
