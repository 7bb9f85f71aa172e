"""Command-line interface.

Four subcommands::

    receipt-kie decode  <ocr files/dirs> --out DIR [--tagger ...]
    receipt-kie eval    --results DIR --truth DIR [--mode ...]
    receipt-kie synth   --out DIR --seed N [corruption flags]
    receipt-kie render  RESULT_FILE OCR_FILE --out FILE.svg

``eval`` and ``render`` refuse a result whose doc id, token count or any
token box differs from those of the page it is read with. With two CPUs,
``eval`` scores the second half of its result files in a forked helper
process; its output, exit code and error line are those of one process.

Errors and warnings go to stderr, one line each, as
``ERROR receipt_kie.cli: <message>`` or ``WARNING receipt_kie.cli: <message>``;
an error line names the file at fault once. All outputs are deterministic:
running the same command twice produces byte-identical files.

Exit codes: 0 success; 1 input/processing failure; 2 flag validation
errors and ``eval --min-f1`` threshold misses. argparse's own errors print
the usage and ``receipt-kie <command>: error: ...``; ``main`` raises
``SystemExit(2)`` for them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import contextmanager
from functools import cache, partial
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence, TextIO

from . import __version__, tagging
from .corrections import DECIMAL_SEPARATORS, apply_corrections
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
    _is_file_name,
    _load_object,
    _require,
    canonical_json,
    parse_ground_truth,
    parse_ocr,
    parse_result,
    serialize_result,
)
from .layout import _check_y_overlap_threshold, detect_lines_geometric, group_product_lines
from .model import Document, EntityLabel
from .render import render_svg

_PRED_SUFFIX = ".pred.json"
_RESERVED_SUFFIXES = (".truth.json", _PRED_SUFFIX, ".result.json")


def _stderr_line(level: str, message: object) -> None:
    """One ``LEVEL receipt_kie.cli: message`` line on the current stderr."""
    print(f"{level} receipt_kie.cli: {message}", file=sys.stderr)


def _is_ocr_input(path: Path) -> bool:
    if path.suffix != ".json" or path.name == "manifest.json":
        return False
    return not any(path.name.endswith(sfx) for sfx in _RESERVED_SUFFIXES)


def _expand(raw_paths: Sequence[str], wanted: Callable[[Path], bool]) -> list[Path]:
    """Each path that is not a directory, as given, and the entries of each
    directory that ``wanted`` accepts, sorted by name (the order of the
    paths themselves, as they differ only in name)."""
    files: list[Path] = []
    for raw in raw_paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(filter(wanted, path.iterdir()), key=attrgetter("name")))
        else:
            files.append(path)
    return files


def _entity_names(target: Callable[[EntityLabel], str]) -> dict[str, str]:
    """Each entity's singular and plural name, both mapped to ``target(label)``."""
    return {
        name: target(label) for label in ENTITY_ORDER for name in (label.value, ENTITY_PLURALS[label])
    }


def _parse_rate_flags(pairs: Sequence[str], allowed: dict[str, str], flag: str) -> dict[str, float]:
    """The value of each ``NAME=VALUE`` under the key ``allowed[NAME]``. A
    key set twice, through one name or its alias, is refused: which of the
    two values was meant is not known."""
    out: dict[str, float] = {}
    given: dict[str, str] = {}  # key -> the pair that set it
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
        if key in given:
            raise argparse.ArgumentTypeError(
                f"{flag} sets one name twice: {given[key]!r} and {pair!r}"
            )
        given[key] = pair
        out[key] = value
    return out


@contextmanager
def _replacing(path: Path) -> Iterator[TextIO]:
    """A text file to write ``path``'s new contents to. It is a temporary
    file next to ``path``, renamed onto it once the block completes: a
    crash mid-write leaves no truncated file under the final name, and a
    failed write leaves no temporary file behind. An ``OSError`` names
    ``path``. A symlink's target is replaced, so the link stays a link; an
    existing target that is not a regular file (a FIFO, a device) is written in place."""
    target = path.resolve() if path.is_symlink() else path
    try:
        if target.exists() and not target.is_file():
            with target.open("w", encoding="utf-8") as fh:
                yield fh
            return
        tmp = target.with_name(target.name + ".tmp")
        try:
            with tmp.open("w", encoding="utf-8") as fh:
                yield fh
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


@contextmanager
def _collector_paused() -> Iterator[None]:
    """The block runs with the cyclic garbage collector off; on exit it is
    on again only if it was on before, also after an error.

    Decode and eval make no reference cycles (a test holds this), so
    reference counting frees all that a document drops. A collection
    inside one would only walk the document being built and free nothing;
    a receipt of thousands of words would trip dozens of them."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _parse_file(path: Path | str, parse: Callable[..., Any], *args: Any) -> Any:
    """``parse(contents of path, *args)``, the CLI's one file read, made
    unbuffered: the whole file is read at once. A package error names the
    file, as an ``OSError`` does: no caller adds the name."""
    try:
        with open(path, "rb", buffering=0) as fh:
            data = fh.readall()
        return parse(data, *args)
    except ReceiptKieError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


# --------------------------------------------------------------------------
# decode


def _decode_one(
    path: Path,
    tag: Callable[[Document], Document],
    y_overlap_threshold: float,
    decimal_separators: str,
    corrections_enabled: bool,
) -> tuple[str, str, list]:
    doc = _parse_file(path, parse_ocr)
    tagged = tag(doc)
    lines = detect_lines_geometric(tagged, y_overlap_threshold)
    groups = group_product_lines(tagged, lines)
    records: list = []
    if corrections_enabled:
        tagged, records = apply_corrections(tagged, groups, decimal_separators)
    return doc.doc_id, serialize_result(tagged, groups), records


def _import_tagger(predictions: Path) -> Callable[[Document], Document]:
    """The tag function of ``--tagger import``: ``predictions`` is a
    directory whose ``<doc_id>.pred.json`` is read as that document is
    tagged, or one file, read here for its doc id and again at tag time."""
    if predictions.is_dir():
        # Joined as strings, printed as pathlib prints them, like truth paths.
        prefix = "" if str(predictions) == "." else os.path.join(predictions, "")
        return lambda doc: _parse_file(
            f"{prefix}{doc.doc_id}{_PRED_SUFFIX}", partial(tagging.import_predictions, doc)
        )
    single_id = _require(_parse_file(predictions, _load_object), "doc_id", "top level")

    def tag(doc: Document) -> Document:
        if doc.doc_id != single_id:
            raise TokenReferenceError(
                f"{predictions}: no predictions loaded for doc_id {doc.doc_id!r}"
            )
        return _parse_file(predictions, partial(tagging.import_predictions, doc))

    return tag


def cmd_decode(args: argparse.Namespace) -> int:
    try:
        _check_y_overlap_threshold(args.y_overlap)
        # Separators that read no decimal, or a digit that can never be one.
        if not args.decimal_separators:
            raise ValueError("decimal_separators must not be empty")
        if digit := next((sep for sep in args.decimal_separators if sep in "0123456789"), None):
            raise ValueError(f"digit {digit!r} cannot be a decimal separator")
        if args.tagger == "import" and not args.predictions:
            raise ValueError("--tagger import requires --predictions")
        if args.predictions and args.tagger != "import":
            raise ValueError("--predictions requires --tagger import")
    except ValueError as exc:
        _stderr_line("ERROR", exc)
        return 2
    inputs = _expand(args.inputs, _is_ocr_input)
    if not inputs:
        _stderr_line("WARNING", f"no OCR input files found under {', '.join(args.inputs)}")
        return 0

    if args.tagger == "import":
        tag = _import_tagger(Path(args.predictions))
    else:
        tag = partial(tagging.heuristic_tag, decimal_separators=args.decimal_separators)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    decoded: dict[str, tuple[Path, list]] = {}  # doc id -> (input, correction records)
    for path in inputs:
        try:
            with _collector_paused():
                doc_id, payload, records = _decode_one(
                    path, tag, args.y_overlap, args.decimal_separators, not args.no_corrections
                )
            if doc_id in decoded:
                raise CorpusMismatchError(
                    f"{path}: duplicate doc_id {doc_id!r} "
                    f"(already decoded from {decoded[doc_id][0]})"
                )
            with _replacing(out_dir / f"{doc_id}.result.json") as fh:
                fh.write(payload)
        except (ReceiptKieError, OSError, ValueError) as exc:
            failures += 1
            _stderr_line("ERROR", exc)
            if args.fail_fast:
                break  # the results already written still get their audit
            continue
        decoded[doc_id] = (path, records)

    audit_path = Path(args.audit) if args.audit else out_dir / "corrections.jsonl"
    with _replacing(audit_path) as fh:
        for doc_id in sorted(decoded):
            for rec in decoded[doc_id][1]:
                line = {"doc_id": doc_id, "group_id": rec.group_id, "entity": rec.entity.value,
                        "token_id": rec.token_id, "parsed_value": rec.parsed_value}
                fh.write(json.dumps(line, sort_keys=True, ensure_ascii=False) + "\n")
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


def _claim(seen: dict[str, Path], doc_id: str, path: Path) -> None:
    """Record that ``path`` holds ``doc_id``; an id already read is refused."""
    if doc_id in seen:
        raise CorpusMismatchError(
            f"{path}: duplicate doc_id {doc_id!r} (already read from {seen[doc_id]})"
        )
    seen[doc_id] = path


def _read_pairs(
    files: Sequence[Path], truth_dir: Path, truth_ids: set[str], seen: dict[str, Path]
) -> Iterator[tuple[DocPrediction, TruthEntry]]:
    """Each result file of ``files``, in order, with the truth page of its
    doc id in ``truth_dir``, read one document at a time. Each doc id read
    goes into ``seen``, checked against the ids already there, before the
    result is checked against its truth.

    A result whose doc id is not in ``truth_ids``, or was already read, or
    that was not decoded from its truth page is refused."""
    # Truth paths are joined as strings, printed as pathlib prints them: a
    # doc id is a plain file name, and "." is no prefix.
    prefix = "" if str(truth_dir) == "." else os.path.join(truth_dir, "")
    for path in files:
        # The yield stays outside the pause: a generator left suspended or
        # abandoned never leaves the collector off.
        with _collector_paused():
            doc, groups = _parse_file(path, parse_result)
            _claim(seen, doc.doc_id, path)
            if doc.doc_id not in truth_ids:
                raise CorpusMismatchError(f"{path}: no ground truth for doc_id {doc.doc_id!r}")
            page = _parse_file(f"{prefix}{doc.doc_id}.json", parse_ocr)
            products = _parse_file(f"{prefix}{doc.doc_id}.truth.json", parse_ground_truth, page)
            _check_same_page(path, doc, page)
            pair = DocPrediction.from_groups(doc, groups), (page, products)
        yield pair


def _score(results: Sequence[str], truth_dir: Path, mode: MatchMode) -> EvalReport:
    """The report on the result files under ``results``, in ``_expand``
    order, each scored against its truth page in ``truth_dir``. After the
    last result, a truth doc that no result names is refused.

    With two files or more and two CPUs, a forked helper scores the second
    half of the files while this process scores the first (the CLI runs no
    thread, so the fork is safe). The helper sends back its report, the doc
    ids it read and its first error. They are merged in file order, so the
    report and the error raised are those of one process reading every file."""
    truth_ids = {path.name[: -len(".truth.json")] for path in truth_dir.glob("*.truth.json")}
    if not truth_ids:
        raise CorpusMismatchError(f"no *.truth.json files in {truth_dir}")
    files = _expand(results, lambda p: p.name.endswith(".result.json"))
    seen: dict[str, Path] = {}
    half = len(files) // 2 if len(os.sched_getaffinity(0)) >= 2 else 0
    if not half:
        report = build_report(_read_pairs(files, truth_dir, truth_ids, seen), mode)
    else:
        # Imported here, before the fork: importing the CLI stays cheap.
        import pickle
        import signal

        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # the helper, which never returns
            try:
                read: dict[str, Path] = {}
                report = error = None
                try:
                    report = build_report(_read_pairs(files[half:], truth_dir, truth_ids, read), mode)
                except Exception as exc:  # the parent raises it
                    error = exc
                data = pickle.dumps((report, list(read), error))
                with open(write_fd, "wb") as pipe:
                    pipe.write(data)
            finally:
                os._exit(0)
        os.close(write_fd)
        try:
            report = build_report(_read_pairs(files[:half], truth_dir, truth_ids, seen), mode)
            # _parse_file closes the descriptor it reads: it gets a copy.
            other, ids, error = _parse_file(os.dup(read_fd), pickle.loads)
        finally:
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        # The helper's ids include that of a document it failed on after
        # reading it: one process would find that id a duplicate first.
        for path, doc_id in zip(files[half:], ids):
            _claim(seen, doc_id, path)
        if error is not None:
            try:
                raise error
            finally:
                del error  # its traceback holds this frame: no cycle through a local
        report += other
    missing = sorted(truth_ids - seen.keys())
    if missing:
        raise CorpusMismatchError(f"no predictions for {', '.join(missing[:5])}")
    return report


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
        for key, bar in thresholds.items():
            # NaN fails the test too: a bar that no F1 can miss, or none can
            # meet, gates nothing.
            if not 0.0 <= bar <= 1.0:
                raise argparse.ArgumentTypeError(f"--min-f1 {key}: {bar} is not within [0, 1]")
    except argparse.ArgumentTypeError as exc:
        _stderr_line("ERROR", exc)
        return 2

    mode = MatchMode.STRICT_OCR if args.mode == "strict" else MatchMode.TAG_ONLY
    truth_dir = Path(args.truth)
    report = _score(args.results, truth_dir, mode)

    if args.compare:
        other = _score([args.compare], truth_dir, mode)
        primary_name = Path(args.results[0]).name or "results"
        other_name = Path(args.compare).name or "compare"
        print(_comparison_table([(primary_name, report), (other_name, other)]))
    else:
        print(f"mode: {mode.value}   documents: {report.corpus_size}")
        print(report.format_table())

    summary = report.as_dict()
    if args.json_out:
        with _replacing(Path(args.json_out)) as fh:
            fh.write(canonical_json(summary))

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
    # Imported here: the other commands never load synth, nor what it imports.
    from .synth import CorpusSpec, CorruptionSpec, remove_corpus, write_corpus

    out_dir = Path(args.out)
    if out_dir.exists() and any(out_dir.iterdir()) and not args.force:
        _stderr_line("ERROR", f"output directory {out_dir} is not empty (pass --force to overwrite)")
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
        corruption = CorruptionSpec(ocr_noise_rate=args.ocr_noise, **fn_rates)
        if not fn_rates and args.ocr_noise == 0.0:
            corruption = None  # a clean corpus, without pred/
    except (ValueError, argparse.ArgumentTypeError) as exc:
        _stderr_line("ERROR", exc)
        return 2

    manifest_path = out_dir / "manifest.json"
    if args.force and manifest_path.is_file():
        doc_ids = _require(_parse_file(manifest_path, _load_object), "doc_ids", str(manifest_path))
        if not isinstance(doc_ids, list) or not all(map(_is_file_name, doc_ids)):
            raise CorpusMismatchError(f"{manifest_path}: doc_ids must be a list of file names")
        remove_corpus(out_dir, doc_ids)
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
        with _replacing(Path(args.out)) as fh:
            fh.write(svg)
    else:
        sys.stdout.write(svg)
    return 0


# --------------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused:
    building it costs more than parsing a command line with it.

    ``set_defaults`` binds each subcommand's ``cmd_*`` function once, so a
    ``cmd_*`` replaced in this module after the first call is not run.
    Everything those functions call (``parse_ocr``, ``serialize_result``
    and the rest) is still looked up in this module at call time."""
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
    p.add_argument("--decimal-separators", default=DECIMAL_SEPARATORS,
                   help="accepted decimal separators")
    p.add_argument("--fail-fast", action="store_true", help="stop at the first bad input")
    p.add_argument("--audit", help="corrections audit log path (default OUT/corrections.jsonl)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="score results against ground truth")
    p.add_argument("--results", nargs="+", required=True, help="result files or directory")
    p.add_argument("--truth", required=True, help="directory with *.truth.json + OCR files")
    p.add_argument("--mode", choices=("tag", "strict"), default="tag")
    p.add_argument("--compare", help="second results directory for a side-by-side table")
    p.add_argument("--min-f1", action="append", metavar="NAME=F1",
                   help="fail (exit 2) if an entity's --results f1 is below the bar; repeatable")
    p.add_argument("--json-out", help="also write the --results report as JSON")
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
    p.add_argument("--force", action="store_true",
                   help="write into a non-empty directory, replacing the corpus it holds")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("render", help="render a result file to SVG")
    p.add_argument("result", help="a *.result.json file")
    p.add_argument("ocr", help="the matching OCR input file")
    p.add_argument("--out", help="SVG output path (default: stdout)")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReceiptKieError, OSError) as exc:
        _stderr_line("ERROR", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
