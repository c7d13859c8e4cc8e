"""Command-line interface.

One binary, five subcommands (``decode``, ``filter``, ``sample``,
``stats``, ``inspect-fsm``) over JSON-lines interfaces so they compose
in shell pipelines: ``filter`` turns detection records into constraint
records, ``decode`` turns constraint records into captions. stdout
carries data records only; diagnostics and errors (single-line JSON)
go to stderr. Exit codes: 0 success, 1 input error, 2 internal error,
141 (128 + SIGPIPE) when stdout is closed before the output is written,
as by ``| head``; that exit writes nothing to stderr and no manifest.

JSON-lines inputs are read as UTF-8 from a path or stdin (``-``),
whatever the locale; a record ends at ``\\n`` (a ``\\r`` before it is
stripped). A line that is not valid UTF-8 exits 1 with its line number.

Every run can write a manifest (``--manifest PATH``) recording the
subcommand, resolved flags, input/output paths, seed and tool version;
replaying the same invocation reproduces byte-identical output. The
path is checked before any input is read, so an unwritable one exits 1
before any output; the manifest is written only after a successful run,
and a run that fails or is cut off leaves no new file and an existing
one unchanged. Wall time is recorded only when ``--timings`` is given,
keeping manifests for repeated runs byte-identical by default.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from typing import Iterator, Sequence, TextIO

from . import __version__
from .beam import DecodeConfig, decode
from .errors import DuplicateImageError, LexbeamError, MalformedCaptionError, MalformedDetectionError
from .errors import MalformedGroupError, QuotaRangeError, check_int, load_json
from .filtering import (
    DEFAULT_IOU_THRESHOLD,
    DEFAULT_TOP_K,
    Blacklist,
    ClassHierarchy,
    Detection,
    FilterMode,
    default_hierarchy,
    filter_constraints,
)
from .fsm import PhraseMatchMode, check_quota, compile_fsm, default_quota, load_constraints, load_constraints_file
from .sampling import ImageRecord, exclude, ngram_stats, sample, tokenize
from .scorers import BigramModel
from .vocab import Vocabulary


class _Parser(argparse.ArgumentParser):
    """argparse with the error contract of this tool: bad usage exits 1
    with a single JSON line on stderr."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        _emit_error("usage", message)
        raise SystemExit(1)


def _emit_error(kind: str, message: str, line: int | None = None) -> None:
    payload = {"error": kind, "message": message}
    if line is not None:
        payload["line"] = line
    sys.stderr.write(json.dumps(payload) + "\n")


class _JsonLogHandler(logging.Handler):
    """Writes each library log record to stderr as one JSON line."""

    def emit(self, record: logging.LogRecord) -> None:
        payload = {"level": record.levelname, "logger": record.name, "message": record.getMessage()}
        sys.stderr.write(json.dumps(payload) + "\n")


class _Records:
    """Reads JSON-lines records from a path, or stdin for ``-``, as bytes
    whatever the locale: a record ends at ``\\n`` and each line is decoded
    as strict UTF-8. ``line`` is the 1-based line, blank lines counted,
    of the record being read or handled, and None outside any record."""

    line: int | None = None

    def __call__(self, path: str) -> Iterator[dict]:
        fp = sys.stdin.buffer if path == "-" else open(path, "rb")
        try:
            for self.line, raw in enumerate(fp, 1):
                text = raw.decode("utf-8").strip()
                if text:
                    yield load_json(text)
            self.line = None
        finally:
            if path != "-":
                fp.close()


def _print_record(obj: dict, out: TextIO) -> None:
    out.write(json.dumps(obj, sort_keys=True, allow_nan=False) + "\n")


def _copy_image_id(record: dict, payload: dict, error: type[LexbeamError]) -> None:
    """Copy ``record``'s ``image_id``, if it has one, into ``payload``
    as it is; a NaN or infinity anywhere in it raises ``error``."""
    if "image_id" in record:
        try:
            json.dumps(record["image_id"], allow_nan=False)
        except ValueError:
            raise error(f"image_id must hold no NaN or infinity, got {record['image_id']!r}") from None
        payload["image_id"] = record["image_id"]


def _min_satisfied(args: argparse.Namespace) -> int | None:
    """``--min-satisfied``, refused when negative before any record is read."""
    return None if args.min_satisfied is None else check_int("min_satisfied", args.min_satisfied, 0, QuotaRangeError)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lexbeam", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lexbeam {__version__}")
    parser.add_argument("--manifest", metavar="PATH", help="write a run manifest here")
    parser.add_argument(
        "--timings",
        action="store_true",
        help="record wall time in the manifest (off by default so repeated runs match byte for byte)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("decode", help="constrained beam search over constraint records")
    p.add_argument("--scorer", required=True, help="bigram model JSON file")
    p.add_argument(
        "--constraints",
        default="-",
        help="JSON-lines constraint records ('-' for stdin)",
    )
    p.add_argument("--beam-width", type=int, default=DecodeConfig.beam_width)
    p.add_argument("--max-len", type=int, default=DecodeConfig.max_len)
    p.add_argument(
        "--mode",
        choices=[m.value for m in PhraseMatchMode],
        default=PhraseMatchMode.FAILURE.value,
        help="phrase mismatch semantics",
    )
    p.add_argument("--fallback", choices=["on", "off"], default="on")
    p.add_argument("--length-normalize", action="store_true")
    p.add_argument(
        "--min-satisfied",
        type=int,
        default=None,
        help="override the per-record quota (default: record value, else min(2, groups))",
    )

    p = sub.add_parser("filter", help="detections to constraint records")
    p.add_argument("--detections", default="-", help="JSON-lines detection records")
    p.add_argument("--hierarchy", default=None, help="class hierarchy JSON (default: shipped)")
    p.add_argument("--blacklist", default=None, help="blacklist file (default: shipped)")
    p.add_argument(
        "--mode",
        choices=[m.value for m in FilterMode],
        default=FilterMode.FULL.value,
    )
    p.add_argument("--top-k", type=int, default=DEFAULT_TOP_K)
    p.add_argument("--iou-threshold", type=float, default=DEFAULT_IOU_THRESHOLD)
    p.add_argument(
        "--min-satisfied",
        type=int,
        default=None,
        help="quota to stamp on each record (default: min(2, groups))",
    )

    p = sub.add_parser("sample", help="entropy-maximizing image subset selection")
    p.add_argument("--images", default="-", help="JSON-lines image records")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--candidates", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("stats", help="unique n-gram counts over captions")
    p.add_argument("--captions", default="-", help="JSON-lines caption records")
    p.add_argument("--n-max", type=int, default=4)

    p = sub.add_parser("inspect-fsm", help="compile constraints and dump the machine")
    p.add_argument("--constraints", required=True, help="constraint JSON file")
    p.add_argument("--vocab", required=True, help="JSON array of content tokens")
    p.add_argument(
        "--mode",
        choices=[m.value for m in PhraseMatchMode],
        default=PhraseMatchMode.FAILURE.value,
    )
    p.add_argument("--transitions", action="store_true", help="include the transition dump")

    return parser


def _cmd_decode(args: argparse.Namespace, out: TextIO, records: _Records) -> None:
    cfg = DecodeConfig(
        beam_width=args.beam_width,
        max_len=args.max_len,
        min_satisfied_fallback=args.fallback == "on",
        length_normalize=args.length_normalize,
    )
    quota = _min_satisfied(args)
    model = BigramModel.load(args.scorer)
    mode = PhraseMatchMode(args.mode)
    for record in records(args.constraints):
        groups, k = load_constraints(record)
        fsm = compile_fsm(groups, k if quota is None else quota, model.vocab, mode)
        result = decode(model, fsm, cfg)
        caption = model.vocab.words(model.vocab.strip_sentinels(result.tokens))
        payload = {
            "caption": list(caption),
            "logprob": result.logprob,
            "satisfied": result.satisfied_count,
        }
        _copy_image_id(record, payload, MalformedGroupError)
        _print_record(payload, out)


def _cmd_filter(args: argparse.Namespace, out: TextIO, records: _Records) -> None:
    hier = default_hierarchy() if args.hierarchy is None else ClassHierarchy.from_file(args.hierarchy)
    blacklist = Blacklist.default() if args.blacklist is None else Blacklist.from_file(args.blacklist)
    options = (hier, blacklist, FilterMode(args.mode), args.top_k, args.iou_threshold)
    filter_constraints([], *options)  # checks the flags
    quota = _min_satisfied(args)
    for record in records(args.detections):
        dets = record.get("detections", []) if isinstance(record, dict) else None
        if not isinstance(dets, list):
            raise MalformedDetectionError(
                f"a detection record must be an object whose detections are a list, got {record!r}"
            )
        groups = filter_constraints([Detection.from_json(d) for d in dets], *options)
        payload = {
            "min_satisfied": default_quota(len(groups)) if quota is None else check_quota(quota, len(groups)),
            "groups": [g.to_json() for g in groups],
        }
        _copy_image_id(record, payload, MalformedDetectionError)
        _print_record(payload, out)


def _cmd_sample(args: argparse.Namespace, out: TextIO, records: _Records) -> None:
    images, seen = [], set()
    for obj in records(args.images):
        image = ImageRecord.from_json(obj)
        if image.image_id in seen:
            raise DuplicateImageError(f"image id {image.image_id!r} occurs twice")
        seen.add(image.image_id)
        images.append(image)
    eligible, auto_include = exclude(images)
    state = sample(eligible, auto_include, args.target, args.candidates, args.seed)
    for image_id in state.selected:
        _print_record({"image_id": image_id}, out)


def _cmd_stats(args: argparse.Namespace, out: TextIO, records: _Records) -> None:
    captions = []
    for record in records(args.captions):
        if not isinstance(record, dict):
            raise MalformedCaptionError(f"a caption record must be a JSON object, got {record!r}")
        cap = record.get("caption")
        if isinstance(cap, str):
            cap = tokenize(cap)
        elif not isinstance(cap, list) or not all(t is None or isinstance(t, (str, int, float)) for t in cap):
            raise MalformedCaptionError(f"caption must be a string or a list of JSON scalars, got {cap!r}")
        else:  # Python's True == 1, so a boolean is keyed apart from every number
            cap = [(bool, t) if isinstance(t, bool) else t for t in cap]
        captions.append(cap)
    counts = ngram_stats(captions, n_max=args.n_max)
    _print_record({f"{n}-grams": c for n, c in counts.items()}, out)


def _cmd_inspect_fsm(args: argparse.Namespace, out: TextIO, records: _Records) -> None:
    groups, k = load_constraints_file(args.constraints)
    with open(args.vocab, "r", encoding="utf-8") as fp:
        vocab = Vocabulary.from_json(load_json(fp.read()))
    fsm = compile_fsm(groups, k, vocab, PhraseMatchMode(args.mode))
    accepting = fsm.accepting_states()
    out.write(f"{fsm.state_count} states, {len(accepting)} accepting\n")
    out.write(
        f"groups={fsm.n_groups} min_satisfied={fsm.min_satisfied} "
        f"mode={fsm.mode.value} initial={fsm.initial_state}\n"
    )
    for state in range(fsm.state_count):
        out.write(fsm.describe_state(state) + "\n")
    if args.transitions:
        for state, (*row, default) in enumerate(fsm.table.tolist()):
            moved = [f"{vocab.token(t)!r}->{s}" for t, s in zip(fsm.tokens.tolist(), row) if s != default]
            out.write(f"state {state}: default->{default} " + " ".join(moved) + "\n")


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device. A failed write
    stays in stdout's buffer, and the flush at interpreter exit would
    otherwise fail on it again and report it on stderr."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # not backed by a file descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


_COMMANDS = {
    "decode": _cmd_decode,
    "filter": _cmd_filter,
    "sample": _cmd_sample,
    "stats": _cmd_stats,
    "inspect-fsm": _cmd_inspect_fsm,
}

_INPUT_FLAGS = ("scorer", "constraints", "detections", "hierarchy", "blacklist", "images", "captions", "vocab")


def _write_manifest(args: argparse.Namespace, started: float) -> None:
    skipped = ("subcommand", "manifest", "timings", *_INPUT_FLAGS)
    manifest = {
        "subcommand": args.subcommand,
        "flags": {k: v for k, v in vars(args).items() if k not in skipped and v is not None},
        "inputs": [str(v) for k, v in vars(args).items() if k in _INPUT_FLAGS and v],
        "outputs": ["-"],
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_time_ms": (time.monotonic() - started) * 1000.0 if args.timings else None,
    }
    with open(args.manifest, "w", encoding="utf-8") as fp:
        fp.write(json.dumps(manifest, sort_keys=True) + "\n")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    started = time.monotonic()
    # Library warnings become JSON lines for this run only, so repeated
    # calls in one process never stack handlers.
    logger, handler = logging.getLogger("lexbeam"), _JsonLogHandler(logging.WARNING)
    logger.addHandler(handler)
    records = _Records()
    created = False  # the manifest file is new to this run and not yet written
    try:
        if args.manifest:  # an unwritable path fails before any input is read
            existed = os.path.lexists(args.manifest)
            open(args.manifest, "ab").close()  # appends nothing: an existing file is unchanged
            created = not existed
        _COMMANDS[args.subcommand](args, sys.stdout, records)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        if args.manifest:  # only after success: a failed or cut-off run leaves none
            _write_manifest(args, started)
            created = False
    except BrokenPipeError:  # the reader left, as `| head` does: not an input error
        _discard_stdout()
        return 141
    except (LexbeamError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        _emit_error(type(exc).__name__, str(exc), records.line)
        return 1
    except Exception as exc:  # pragma: no cover - internal invariant violations
        _emit_error("internal", f"{type(exc).__name__}: {exc}")
        return 2
    finally:
        logger.removeHandler(handler)
        if created:
            os.unlink(args.manifest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
