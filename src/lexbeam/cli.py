"""Command-line interface.

One binary, five subcommands (``decode``, ``filter``, ``sample``,
``stats``, ``inspect-fsm``) over JSON-lines interfaces so they compose
in shell pipelines: ``filter`` turns detection records into constraint
records, ``decode`` turns constraint records into captions. stdout
carries data records only; diagnostics and errors (single-line JSON)
go to stderr. Exit codes: 0 success, 1 input error, 2 internal error.

Every run can write a manifest (``--manifest PATH``) recording the
subcommand, resolved flags, input/output paths, seed and tool version;
replaying the same invocation reproduces byte-identical output. Wall
time is recorded only when ``--timings`` is given, keeping manifests
for repeated runs byte-identical by default.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import time
from typing import Iterable, Sequence, TextIO

from . import __version__
from .beam import DecodeConfig, decode
from .errors import LexbeamError, MalformedCaptionError
from .filtering import (
    Blacklist,
    ClassHierarchy,
    Detection,
    FilterMode,
    default_hierarchy,
    filter_constraints,
)
from .fsm import (
    PhraseMatchMode,
    compile_fsm,
    load_constraints,
    load_constraints_file,
)
from .sampling import ImageRecord, exclude, ngram_stats, sample, tokenize
from .scorers import BigramModel
from .vocab import Vocabulary


@dataclasses.dataclass
class RunManifest:
    """What happened in one CLI run, sufficient to replay it."""

    subcommand: str
    flags: dict
    inputs: list[str]
    outputs: list[str]
    seed: int | None
    version: str
    wall_time_ms: float | None = None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(dataclasses.asdict(self), fp, sort_keys=True)
            fp.write("\n")


class _Parser(argparse.ArgumentParser):
    """argparse with the error contract of this tool: bad usage exits 1
    with a single JSON line on stderr."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        _emit_error("usage", message)
        raise SystemExit(1)


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


class _JsonLogHandler(logging.Handler):
    """Writes each library log record to stderr as one JSON line."""

    def emit(self, record: logging.LogRecord) -> None:
        payload = {"level": record.levelname, "logger": record.name, "message": record.getMessage()}
        sys.stderr.write(json.dumps(payload) + "\n")


def _open_input(path: str) -> TextIO:
    if path == "-":
        return sys.stdin
    return open(path, "r", encoding="utf-8")


def _read_jsonl(path: str) -> Iterable[dict]:
    fp = _open_input(path)
    try:
        for line in fp:
            line = line.strip()
            if line:
                yield json.loads(line)
    finally:
        if fp is not sys.stdin:
            fp.close()


def _print_record(obj: dict, out: TextIO) -> None:
    out.write(json.dumps(obj, sort_keys=True, allow_nan=False) + "\n")


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
    p.add_argument("--beam-width", type=int, default=5)
    p.add_argument("--max-len", type=int, default=20)
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
    p.add_argument("--top-k", type=int, default=3)
    p.add_argument("--iou-threshold", type=float, default=0.85)
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


def _cmd_decode(args: argparse.Namespace, out: TextIO) -> None:
    model = BigramModel.load(args.scorer)
    cfg_kwargs = dict(
        beam_width=args.beam_width,
        max_len=args.max_len,
        min_satisfied_fallback=args.fallback == "on",
        length_normalize=args.length_normalize,
    )
    mode = PhraseMatchMode(args.mode)
    for record in _read_jsonl(args.constraints):
        groups, k = load_constraints(record)
        if args.min_satisfied is not None:
            k = args.min_satisfied
        fsm = compile_fsm(groups, k, model.vocab, mode)
        result = decode(model, fsm, DecodeConfig(**cfg_kwargs))
        caption = model.vocab.words(model.vocab.strip_sentinels(result.tokens))
        payload = {
            "caption": list(caption),
            "logprob": result.logprob,
            "satisfied": result.satisfied_count,
        }
        if "image_id" in record:
            payload["image_id"] = record["image_id"]
        _print_record(payload, out)


def _cmd_filter(args: argparse.Namespace, out: TextIO) -> None:
    hier = (
        default_hierarchy()
        if args.hierarchy is None
        else ClassHierarchy.from_file(args.hierarchy)
    )
    blacklist = (
        Blacklist.default() if args.blacklist is None else Blacklist.from_file(args.blacklist)
    )
    mode = FilterMode(args.mode)
    for record in _read_jsonl(args.detections):
        dets = [Detection.from_json(d) for d in record.get("detections", [])]
        groups = filter_constraints(
            dets,
            hier,
            blacklist,
            mode=mode,
            top_k=args.top_k,
            iou_threshold=args.iou_threshold,
        )
        k = args.min_satisfied if args.min_satisfied is not None else min(2, len(groups))
        payload = {
            "min_satisfied": k,
            "groups": [g.to_json() for g in groups],
        }
        if "image_id" in record:
            payload["image_id"] = record["image_id"]
        _print_record(payload, out)


def _cmd_sample(args: argparse.Namespace, out: TextIO) -> None:
    images = [ImageRecord.from_json(obj) for obj in _read_jsonl(args.images)]
    eligible, auto_include = exclude(images)
    state = sample(eligible, auto_include, args.target, args.candidates, args.seed)
    for image_id in state.selected:
        _print_record({"image_id": image_id}, out)


def _cmd_stats(args: argparse.Namespace, out: TextIO) -> None:
    captions = []
    for record in _read_jsonl(args.captions):
        cap = record["caption"]
        if isinstance(cap, str):
            cap = tokenize(cap)
        elif not isinstance(cap, list) or not all(t is None or isinstance(t, (str, int, float)) for t in cap):
            raise MalformedCaptionError(f"caption must be a string or a list of JSON scalars, got {cap!r}")
        captions.append(cap)
    counts = ngram_stats(captions, n_max=args.n_max)
    _print_record({f"{n}-grams": c for n, c in counts.items()}, out)


def _cmd_inspect_fsm(args: argparse.Namespace, out: TextIO) -> None:
    groups, k = load_constraints_file(args.constraints)
    with open(args.vocab, "r", encoding="utf-8") as fp:
        vocab = Vocabulary(json.load(fp))
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


_COMMANDS = {
    "decode": _cmd_decode,
    "filter": _cmd_filter,
    "sample": _cmd_sample,
    "stats": _cmd_stats,
    "inspect-fsm": _cmd_inspect_fsm,
}

_INPUT_FLAGS = ("scorer", "constraints", "detections", "hierarchy", "blacklist", "images", "captions", "vocab")


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
    try:
        _COMMANDS[args.subcommand](args, sys.stdout)
    except LexbeamError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 1
    except Exception as exc:  # pragma: no cover - internal invariant violations
        _emit_error("internal", f"{type(exc).__name__}: {exc}")
        return 2
    finally:
        logger.removeHandler(handler)

    if args.manifest:
        flags = {
            k: v
            for k, v in vars(args).items()
            if k not in ("subcommand", "manifest", "timings") and v is not None
        }
        manifest = RunManifest(
            subcommand=args.subcommand,
            flags={k: v for k, v in flags.items() if k not in _INPUT_FLAGS},
            inputs=[str(v) for k, v in vars(args).items() if k in _INPUT_FLAGS and v],
            outputs=["-"],
            seed=getattr(args, "seed", None),
            version=__version__,
            wall_time_ms=(time.monotonic() - started) * 1000.0 if args.timings else None,
        )
        manifest.write(args.manifest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
