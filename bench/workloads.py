"""The benchmark's workloads.

Each workload loads its generated inputs through the library's own
loaders (``setup``), then runs passes over them (``run_pass``) calling
the public functions in the order the CLI calls them. A pass returns
one ``Op`` per operation; ``check`` compares an op's output with the
generator's independent expectation after the timed passes.

* ``caption``: light detection records -> ``filter_constraints`` (top 3,
  quota 2) -> ``compile_fsm`` (FAILURE) -> ``decode`` (beam 5, 20 tokens)
  with a 5k-token bigram model. Few states, wide vocabulary.
* ``many_groups``: six-group phrase constraints (quota 5) ->
  ``compile_fsm`` (FAILURE and FAITHFUL records alternate) -> ``decode``
  with a 1k-token model. 320 states, narrow vocabulary.
* ``dataset``: ``exclude`` + ``sample`` over 40k images, dense
  ``filter_constraints`` records, ``tokenize`` + ``ngram_stats`` over
  reference captions. No decoding.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from lexbeam import (
    Blacklist,
    BigramModel,
    ClassHierarchy,
    DecodeConfig,
    Detection,
    ImageRecord,
    PhraseMatchMode,
    compile_fsm,
    decode,
    exclude,
    filter_constraints,
    load_constraints,
    ngram_stats,
    sample,
    tokenize,
)

import checks
import gen

BEAM = DecodeConfig(beam_width=5, max_len=20)
TOP_K = 3
N_MAX = 4


@dataclass
class Op:
    """One attempted operation: what it was and its output (or the
    exception it raised)."""

    kind: str  # "record" for per-record chains, else the stage name
    rid: int
    out: object


def _read_jsonl(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def _attempt(kind: str, rid: int, fn) -> Op:
    try:
        out = fn()
    except Exception as exc:  # a failed operation is counted, not fatal
        out = exc
    return Op(kind, rid, out)


def _check_caption(st: dict, op: Op, table, group_forms, quota: int, faithful: bool):
    result, vocab = op.out["result"], st["model"].vocab
    words = list(vocab.words(vocab.strip_sentinels(result.tokens)))
    return checks.check_decode(words, result.tokens, result.logprob, result.satisfied_count,
                               vocab.eos_id, table, group_forms, quota, faithful, op.out["states"])


class Caption:
    name = "caption"
    n_records = 12
    vocab_size = 5000

    def generate(self, seed: int, outdir: str) -> gen.Inputs:
        return gen.generate_caption(seed, outdir, self.n_records, self.vocab_size)

    def setup(self, inputs: gen.Inputs, tracer) -> dict:
        files = inputs.files
        with tracer.span("scorers.load"):
            model = BigramModel.load(files["model"])
        with tracer.span("filtering.load"):
            hier = ClassHierarchy.from_file(files["hierarchy"])
            blacklist = Blacklist.from_file(files["blacklist"])
            records = [[Detection.from_json(d) for d in rec["detections"]]
                       for rec in _read_jsonl(files["detections"])]
        return {"model": model, "hier": hier, "blacklist": blacklist, "records": records}

    def run_pass(self, st: dict, tracer) -> list[Op]:
        scorer = tracer.wrap_scorer(st["model"])
        vocab = st["model"].vocab

        def chain(rid: int, dets):
            with tracer.span("filtering.filter", rid):
                groups = filter_constraints(dets, st["hier"], st["blacklist"], top_k=TOP_K)
            with tracer.span("fsm.compile_failure", rid):
                fsm = compile_fsm(groups, min(2, len(groups)), vocab, PhraseMatchMode.FAILURE)
            with tracer.span("beam.decode", rid):
                result = decode(scorer, fsm, BEAM)
            return {"groups": groups, "states": fsm.state_count, "result": result,
                    "detections_in": len(dets)}

        return [_attempt("record", rid, lambda: chain(rid, dets))
                for rid, dets in enumerate(st["records"])]

    def check(self, inputs: gen.Inputs, st: dict, op: Op) -> str | None:
        rec = inputs.detections[op.rid]
        err = checks.check_groups(op.out["groups"], rec.expected_labels, inputs.forms)
        if err:
            return err
        return _check_caption(st, op, inputs.table,
                              [inputs.forms[c] for c in rec.expected_labels],
                              min(2, len(rec.expected_labels)), False)

    def counts(self, ops: list[Op]) -> dict[str, int]:
        outs = [op.out for op in ops]
        return {
            "fsm.states": sum(o["states"] for o in outs),
            "beam.finalists": sum(len(b) for o in outs
                                  for b in o["result"].per_state_finalists.values()),
            "filtering.detections_in": sum(o.get("detections_in", 0) for o in outs),
            "filtering.groups_out": sum(len(o.get("groups", ())) for o in outs),
        }

    def loss(self, ops: list[Op]) -> float:
        """Mean negative log-probability of the winning captions."""
        return -sum(op.out["result"].logprob for op in ops) / len(ops)


class ManyGroups(Caption):
    name = "many_groups"
    n_records = 4
    vocab_size = 1000

    def generate(self, seed: int, outdir: str) -> gen.Inputs:
        return gen.generate_many_groups(seed, outdir, self.n_records, self.vocab_size, BEAM.max_len)

    def setup(self, inputs: gen.Inputs, tracer) -> dict:
        files = inputs.files
        with tracer.span("scorers.load"):
            model = BigramModel.load(files["model"])
        with tracer.span("fsm.load"):
            records = [(load_constraints(rec), PhraseMatchMode(rec["mode"]))
                       for rec in _read_jsonl(files["constraints"])]
        return {"model": model, "records": records}

    def run_pass(self, st: dict, tracer) -> list[Op]:
        scorer = tracer.wrap_scorer(st["model"])
        vocab = st["model"].vocab

        def chain(rid: int, groups, quota: int, mode: PhraseMatchMode):
            with tracer.span(f"fsm.compile_{mode.value}", rid):
                fsm = compile_fsm(groups, quota, vocab, mode)
            with tracer.span("beam.decode", rid):
                result = decode(scorer, fsm, BEAM)
            return {"states": fsm.state_count, "result": result}

        return [_attempt("record", rid, lambda: chain(rid, groups, quota, mode))
                for rid, ((groups, quota), mode) in enumerate(st["records"])]

    def check(self, inputs: gen.Inputs, st: dict, op: Op) -> str | None:
        rec = inputs.constraints[op.rid]
        return _check_caption(st, op, inputs.table, [g["alternatives"] for g in rec["groups"]],
                              rec["min_satisfied"], rec["mode"] == "faithful")


class Dataset:
    name = "dataset"
    n_images = 40000
    target_extra = 4500
    n_candidates = 5
    n_dense = 100
    n_captions = 20000

    def generate(self, seed: int, outdir: str) -> gen.Inputs:
        inputs = gen.generate_dataset(seed, outdir, self.n_images, self.n_dense, self.n_captions)
        inputs.ngrams = checks.recount_ngrams(inputs.captions, N_MAX)
        return inputs

    def setup(self, inputs: gen.Inputs, tracer) -> dict:
        files = inputs.files
        with tracer.span("filtering.load"):
            hier = ClassHierarchy.from_file(files["hierarchy"])
            blacklist = Blacklist.from_file(files["blacklist"])
            records = [[Detection.from_json(d) for d in rec["detections"]]
                       for rec in _read_jsonl(files["detections"])]
        with tracer.span("sampling.load"):
            images = [ImageRecord.from_json(obj) for obj in _read_jsonl(files["images"])]
            captions = [obj["caption"] for obj in _read_jsonl(files["captions"])]
        return {"hier": hier, "blacklist": blacklist, "records": records,
                "images": images, "captions": captions, "seed": inputs.sample_seed}

    def run_pass(self, st: dict, tracer) -> list[Op]:
        def select():
            with tracer.span("sampling.exclude"):
                eligible, auto = exclude(st["images"])
            with tracer.span("sampling.sample"):
                return sample(eligible, auto, len(auto) + self.target_extra,
                              self.n_candidates, st["seed"])

        def filt(rid: int, dets):
            with tracer.span("filtering.filter", rid):
                groups = filter_constraints(dets, st["hier"], st["blacklist"], top_k=TOP_K)
            return {"groups": groups, "detections_in": len(dets)}

        def stats():
            with tracer.span("sampling.tokenize"):
                toks = [tokenize(c) for c in st["captions"]]
            with tracer.span("sampling.ngram"):
                return ngram_stats(toks, N_MAX)

        ops = [_attempt("sample", 0, select)]
        ops += [_attempt("record", rid, lambda: filt(rid, dets))
                for rid, dets in enumerate(st["records"])]
        ops.append(_attempt("stats", 0, stats))
        return ops

    def check(self, inputs: gen.Inputs, st: dict, op: Op) -> str | None:
        if op.kind == "sample":
            return checks.check_sample(op.out, inputs.images, self.target_extra, self.n_candidates)
        if op.kind == "stats":
            return checks.check_ngrams(op.out, inputs.ngrams)
        return checks.check_groups(op.out["groups"], inputs.detections[op.rid].expected_labels,
                                   inputs.forms)

    def counts(self, ops: list[Op]) -> dict[str, int]:
        filters = [op.out for op in ops if op.kind == "record"]
        state = next(op.out for op in ops if op.kind == "sample")
        return {
            "filtering.detections_in": sum(f["detections_in"] for f in filters),
            "filtering.groups_out": sum(len(f["groups"]) for f in filters),
            "sampling.sample_steps": len(state.trace),
            "sampling.candidates_scored": sum(len(step.candidates) for step in state.trace),
        }

    def loss(self, ops: list[Op]) -> float:
        """Entropy deficit of the selection, ln K - H over its K classes:
        how far the sampler's objective is from a uniform class mix."""
        counts = [c for c in next(op.out for op in ops if op.kind == "sample").class_counts.values() if c]
        total = sum(counts)
        return math.log(len(counts)) + sum(c / total * math.log(c / total) for c in counts)


WORKLOADS = {w.name: w for w in (Caption(), ManyGroups(), Dataset())}
