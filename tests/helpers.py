"""Shared test oracles, all deliberately independent of the library's
FSM/beam/sampler/model-reader/IoU machinery: plain substring scans,
exhaustive enumeration, full recounts, a per-triple model reader, a
dense candidate-block builder, a plain one-beam-per-state search (which
reads only the compiled FSM's table), a beam search with no machine at
all and a per-pair overlap suppression. Also the fixtures tests build scorers and model files
with: a table scorer and a model-file writer. And ``GOLDEN_RUNS``, the
one list of golden CLI runs."""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

import numpy as np

from lexbeam import BeamHypothesis, BigramModel, ConstraintGroup, DecodeResult, Vocabulary
from lexbeam.errors import (
    MalformedModelError,
    NegativeBigramCountError,
    NoHypothesisError,
    NonPositiveAlphaError,
    UnknownTokenError,
)
from lexbeam.sampling import POOL_KEYS, SampleStep, SelectionState

DATA = Path(__file__).parent / "data"


def contains_phrase(seq, phrase) -> bool:
    phrase = tuple(phrase)
    return any(
        tuple(seq[i : i + len(phrase)]) == phrase
        for i in range(len(seq) - len(phrase) + 1)
    )


def scan_satisfied(seq, groups_ids) -> int:
    """Number of groups with some alternative contiguous in ``seq``."""
    return sum(
        1
        for alts in groups_ids
        if any(contains_phrase(seq, alt) for alt in alts)
    )


def groups_to_ids(groups: list[ConstraintGroup], vocab: Vocabulary):
    return [tuple(vocab.ids(alt) for alt in g.alternatives) for g in groups]


def sequence_logprob(scorer, seq) -> float:
    """Log-probability of a content sequence terminated by the end
    sentinel, accumulated step by step."""
    lp = 0.0
    for i in range(len(seq)):
        lp += float(scorer.next_logprobs(seq[:i])[seq[i]])
    lp += float(scorer.next_logprobs(seq)[scorer.vocab.eos_id])
    return lp


def dense_candidates(row, offset, eos, special, plain, width):
    """One scorer context's candidate block from its full dense row: the
    end sentinel, the special tokens, the plain tokens strictly above the
    ``width``-th best plain score (the cut) and the ``width`` smallest ids
    tied at it, padded with -inf to ``1 + special.size + min(2 * width -
    1, max(plain.size, 1))`` columns. Returns the tokens, their scores
    (``offset`` plus the row's), the cut and the best plain score below
    it."""
    rest = row[plain] + offset
    cut = np.partition(rest, -width)[-width] if plain.size > width else -np.inf
    top = plain[np.concatenate([np.flatnonzero(rest > cut), np.flatnonzero(rest == cut)[:width]])]
    tokens = np.concatenate([[eos], special, top, np.full(min(2 * width - 1, max(plain.size, 1)) - top.size, eos)])
    scores = row[tokens] + offset
    scores[1 + special.size + top.size:] = -np.inf
    return tokens, scores, cut, np.max(rest, where=rest < cut, initial=-np.inf)


def winner(result):
    """A ``DecodeResult``'s winner, as ``(tokens, logprob, satisfied_count)``."""
    return result.tokens, result.logprob, result.satisfied_count


def reference_decode(scorer, fsm, cfg):
    """Plain-Python constrained beam search with one beam per FSM state:
    every live hypothesis is extended by every token but the end
    sentinel, through the scorer's dense rows, and each target state
    keeps its ``cfg.beam_width`` best by ``(-logprob, tokens)``. No
    candidate blocks, no floor and no early finisher cut; every finite
    finisher is kept until each state's best are chosen the same way.
    Returns a ``DecodeResult`` with a plain dict of finalists, or raises
    ``NoHypothesisError`` with the library's messages."""
    size, eos, width = len(scorer.vocab), scorer.vocab.eos_id, cfg.beam_width
    table, columns = fsm.table.tolist(), fsm.columns.tolist()
    live = [((), fsm.initial_state, 0.0)]
    finished = []
    for step in range(cfg.max_len + 1):
        beams = {}
        for tokens, state, lp in live:
            row = [float(x) for x in scorer.next_logprobs(tokens)]
            if lp + row[eos] > -math.inf:
                finished.append((tokens + (eos,), table[state][columns[eos]], lp + row[eos]))
            if step < cfg.max_len:
                for tok in range(size):
                    if tok != eos and lp + row[tok] > -math.inf:
                        target = table[state][columns[tok]]
                        beams.setdefault(target, []).append((tokens + (tok,), target, lp + row[tok]))
        live = [hyp for hyps in beams.values() for hyp in sorted(hyps, key=lambda h: (-h[2], h[0]))[:width]]
        if not live:
            break
    per_state = {}
    for tokens, state, lp in sorted(finished, key=lambda h: (h[1], -h[2], h[0])):
        if len(per_state.setdefault(state, [])) < width:
            per_state[state].append(BeamHypothesis(tokens, lp, state))
    finalists = [hyp for hyps in per_state.values() for hyp in hyps]
    reached = max((fsm.satisfied_count(hyp.fsm_state) for hyp in finalists), default=-1)
    if reached < fsm.min_satisfied and not cfg.min_satisfied_fallback:
        raise NoHypothesisError(
            f"no completed hypothesis satisfies {fsm.min_satisfied} "
            f"constraint(s) within {cfg.max_len} tokens"
        )
    if reached < 0:
        raise NoHypothesisError("no completed hypothesis at any satisfaction tier")
    tier = min(fsm.min_satisfied, reached)

    def rank(hyp):
        score = hyp.logprob / len(hyp.tokens) if cfg.length_normalize else hyp.logprob
        return -score, hyp.tokens

    best = min((hyp for hyp in finalists if fsm.satisfied_count(hyp.fsm_state) >= tier), key=rank)
    return DecodeResult(
        best.tokens, best.logprob, fsm.satisfied_count(best.fsm_state), {s: tuple(h) for s, h in per_state.items()}
    )


def plain_beam_search(scorer, width, max_len):
    """Standard beam search with no machine, by decode's conventions:
    each step extends every live hypothesis by every token but the end
    sentinel, drops -inf and keeps the ``width`` best extensions by
    ``(-logprob, tokens)``; the end sentinel finishes a hypothesis, and
    the ``width`` best finite finishers, ranked the same way, are the
    finalists. Returns a ``DecodeResult`` whose one state, 0, holds
    them, or raises ``NoHypothesisError`` when nothing finishes."""
    size, eos = len(scorer.vocab), scorer.vocab.eos_id
    live, finished = [((), 0.0)], []
    for step in range(max_len + 1):
        extended = []
        for tokens, lp in live:
            row = [float(x) for x in scorer.next_logprobs(tokens)]
            if lp + row[eos] > -math.inf:
                finished.append((tokens + (eos,), lp + row[eos]))
            if step < max_len:
                extended += [(tokens + (t,), lp + row[t]) for t in range(size) if t != eos and lp + row[t] > -math.inf]
        live = sorted(extended, key=lambda h: (-h[1], h[0]))[:width]
    finalists = tuple(BeamHypothesis(tokens, lp, 0) for tokens, lp in sorted(finished, key=lambda h: (-h[1], h[0]))[:width])
    if not finalists:
        raise NoHypothesisError("no completed hypothesis at any satisfaction tier")
    return DecodeResult(finalists[0].tokens, finalists[0].logprob, 0, {0: finalists})


def all_sequences(alphabet, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def constrained_argmax(scorer, groups_ids, quota, max_len):
    """Exhaustive constrained argmax over content sequences of length
    <= max_len (any non-end token may appear). Returns (logprob, seq)
    with ties broken toward the lexicographically smallest sequence,
    or None when no sequence meets the quota."""
    vocab = scorer.vocab
    alphabet = [i for i in range(len(vocab)) if i != vocab.eos_id]
    best = None
    for seq in all_sequences(alphabet, max_len):
        if scan_satisfied(seq, groups_ids) < quota:
            continue
        lp = sequence_logprob(scorer, seq)
        if best is None or lp > best[0] or (lp == best[0] and seq < best[1]):
            best = (lp, seq)
    return best


def random_bigram(rng: random.Random, vocab: Vocabulary) -> BigramModel:
    size = len(vocab)
    counts = {
        (v, w): rng.randrange(0, 5)
        for v in range(size)
        for w in range(size)
        if w != vocab.bos_id
    }
    alpha = rng.choice([0.1, 0.5, 1.0, 2.0])
    return BigramModel(vocab, counts, alpha)


def assert_normalized(logprobs: np.ndarray, tol: float = 1e-6) -> None:
    """Raise ``ValueError`` if ``logprobs`` is not a proper log-distribution."""
    total = float(np.logaddexp.reduce(logprobs))
    if not abs(total) <= tol:
        raise ValueError(f"log-probabilities sum to exp({total}), not 1")


class TableScorer:
    """A scorer backed by hand-written rows, for crafting decoding
    scenarios: ``table`` maps exact prefixes (tuples of token ids) to
    log-prob rows, and ``default`` serves any prefix not listed. An
    unlisted prefix with no default raises ``KeyError``; a row of the
    wrong length or that is not a log-distribution raises ``ValueError``.
    """

    def __init__(self, vocab: Vocabulary, table, default=None):
        self.vocab = vocab
        self._table = {tuple(prefix): self._freeze(row) for prefix, row in table.items()}
        self._default = None if default is None else self._freeze(default)

    def _freeze(self, row) -> np.ndarray:
        arr = np.asarray(row, dtype=np.float64).copy()
        if arr.shape != (len(self.vocab),):
            raise ValueError(f"row length {arr.shape} does not match vocabulary size {len(self.vocab)}")
        assert_normalized(arr)
        arr.flags.writeable = False
        return arr

    def next_logprobs(self, prefix) -> np.ndarray:
        row = self._table.get(tuple(prefix), self._default)
        if row is None:
            raise KeyError(f"no distribution for prefix {tuple(prefix)!r}")
        return row


def write_model(model: BigramModel, path) -> None:
    """Write ``model`` as a model file, as the CLI's ``--scorer`` reads it."""
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(model.to_json(), fp, sort_keys=True)
        fp.write("\n")


def quantised_table(rng: random.Random, vocab: Vocabulary, max_len: int) -> TableScorer:
    """A scorer for every prefix up to ``max_len`` whose rows take only
    a few probability levels, so that many sequences tie exactly."""
    alphabet = [i for i in range(len(vocab)) if i != vocab.eos_id]
    rows = {}
    for prefix in all_sequences(alphabet, max_len):
        weights = np.array([rng.choice((1, 1, 2)) for _ in range(len(vocab))], dtype=float)
        rows[prefix] = np.log(weights / weights.sum())
    return TableScorer(vocab, rows)


def random_groups(
    rng: random.Random,
    vocab: Vocabulary,
    max_groups: int = 3,
    max_phrase_len: int = 1,
    max_alts: int = 2,
) -> list[ConstraintGroup]:
    content = list(vocab.content_tokens)
    n = rng.randint(1, max_groups)
    groups = []
    for g in range(n):
        alts = []
        for _ in range(rng.randint(1, max_alts)):
            length = rng.randint(1, max_phrase_len)
            alts.append(tuple(rng.choice(content) for _ in range(length)))
        groups.append(ConstraintGroup(label=f"g{g}", alternatives=tuple(alts)))
    return groups


def reference_transitions(groups: list[ConstraintGroup], vocab: Vocabulary, mode: str) -> np.ndarray:
    """The dense ``states x V`` transition table by brute-force search,
    in the compiler's state layout: mask states ``0 .. 2**n - 1``, then
    one progress state per (mask, group, alternative, matched) with the
    group unsatisfied in the mask, alternatives in sorted id order.

    ``failure`` keeps the longest suffix of the input that is a proper
    prefix of a live alternative (ties: lowest group, then alternative);
    ``faithful`` drops to the bare mask state on any non-advancing token.
    """
    alt_ids = [sorted({vocab.ids(alt) for alt in g.alternatives}) for g in groups]
    n = len(groups)
    labels = [(m,) for m in range(1 << n)]
    progress = {}
    for m in range(1 << n):
        for g in range(n):
            if not m >> g & 1:
                for ai, alt in enumerate(alt_ids[g]):
                    for pos in range(1, len(alt)):
                        progress[(m, g, ai, pos)] = len(labels)
                        labels.append((m, g, ai, pos))

    def unsat(mask):
        return [g for g in range(n) if not mask >> g & 1]

    def failure_target(mask, prefix, token):
        s = prefix + (token,)
        for g in unsat(mask):
            if any(len(alt) <= len(s) and s[len(s) - len(alt):] == alt for alt in alt_ids[g]):
                mask |= 1 << g
        for length in range(len(s), 0, -1):
            for g in unsat(mask):
                for ai, alt in enumerate(alt_ids[g]):
                    if len(alt) > length and alt[:length] == s[len(s) - length:]:
                        return progress[(mask, g, ai, length)]
        return mask

    def faithful_target(label, token):
        mask = label[0]
        if len(label) > 1:
            _, g, ai, pos = label
            alt = alt_ids[g][ai]
            if token != alt[pos]:
                return mask
            return mask | 1 << g if pos + 1 == len(alt) else progress[(mask, g, ai, pos + 1)]
        gained = sum(1 << g for g in unsat(mask) if (token,) in alt_ids[g])
        if gained:
            return mask | gained
        for g in unsat(mask):
            for ai, alt in enumerate(alt_ids[g]):
                if len(alt) > 1 and alt[0] == token:
                    return progress[(mask, g, ai, 1)]
        return mask

    table = np.empty((len(labels), len(vocab)), dtype=np.int32)
    for sid, label in enumerate(labels):
        prefix = alt_ids[label[1]][label[2]][: label[3]] if len(label) > 1 else ()
        for tok in range(len(vocab)):
            if mode == "failure":
                table[sid, tok] = failure_target(label[0], prefix, tok)
            else:
                table[sid, tok] = faithful_target(label, tok)
    return table


def reference_entropy(counts) -> float:
    """Shannon entropy of a count multiset, summed in sorted order."""
    counts = sorted(c for c in counts if c > 0)
    total = sum(counts)
    if total == 0:
        return 0.0
    return -sum((c / total) * math.log(c / total) for c in counts)


def reference_sample(eligible, auto_include, target_count, n_candidates, seed) -> SelectionState:
    """Greedy entropy-maximizing selection that recounts the entropy of
    the whole class distribution for every candidate: same pools, draws
    and tie-breaks as :func:`lexbeam.sample`, without its incremental
    scoring. Validation of the arguments is left to the library."""
    counts: dict[str, int] = {}
    selected: list[str] = []
    for img in auto_include:
        selected.append(img.image_id)
        for c in img.classes:
            counts[c] = counts.get(c, 0) + 1

    def entropy_with(classes):
        merged = dict(counts)
        for c in classes:
            merged[c] = merged.get(c, 0) + 1
        return reference_entropy(merged.values())

    pools = {k: [img for img in eligible if len(img.classes) == k] for k in POOL_KEYS}
    rng = random.Random(seed)
    state = SelectionState(selected=selected, class_counts=counts, trace=[])
    while len(selected) < target_count and any(pools.values()):
        for key in POOL_KEYS:
            if len(selected) >= target_count:
                break
            pool = pools[key]
            if not pool:
                continue
            indices = rng.sample(range(len(pool)), min(n_candidates, len(pool)))
            candidates = [pool[i] for i in indices]
            chosen_at, chosen = min(
                zip(indices, candidates),
                key=lambda pair: (-entropy_with(pair[1].classes), pair[1].image_id, pair[0]),
            )
            pool.pop(chosen_at)
            selected.append(chosen.image_id)
            for c in chosen.classes:
                counts[c] = counts.get(c, 0) + 1
            state.trace.append(
                SampleStep(pool=key, candidates=tuple(img.image_id for img in candidates), chosen=chosen.image_id)
            )
    return state


def reference_model_json(obj: dict) -> tuple[list[bytes], str]:
    """Per-triple reference for ``BigramModel.from_json``. It reads the
    triples into a ``{(v, w): c}`` dict with one ``int()`` per entry,
    each of which must fit int64 (else :class:`MalformedModelError`), so
    a pair's last triple wins and a bad pair is found in the dict's
    order (its first occurrence, with its last value), checks each pair
    in a loop and builds every row from the closed form, summing each
    context's float64 counts in token order. Returns the bytes of each
    context's row and ``to_json()`` as ``sort_keys`` JSON text."""
    vocab = Vocabulary(obj["vocab"])

    def entry(x) -> int:
        x = int(x)
        if not -(2**63) <= x < 2**63:
            raise OverflowError(f"{x} is outside int64")
        return x

    try:
        counts = {(entry(v), entry(w)): entry(c) for v, w, c in obj["counts"]}
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedModelError(str(exc)) from None
    alpha = float(obj["alpha"])
    if not (alpha > 0 and math.isfinite(alpha)):
        raise NonPositiveAlphaError(f"alpha must be > 0, got {alpha}")
    size, bos = len(vocab), vocab.bos_id
    for (v, w), c in counts.items():
        if not (0 <= v < size and 0 <= w < size):
            raise UnknownTokenError(f"count pair ({v}, {w}) out of range")
        if c < 0:
            raise NegativeBigramCountError(f"negative count for pair ({v}, {w})")
    stored = sorted((pair, c) for pair, c in counts.items() if c)
    rows = []
    for context in range(size):
        successors = [(w, np.float64(c)) for (v, w), c in stored if v == context]
        total = np.float64(0.0)
        for w, c in successors:
            if w != bos:
                total += c
        logden = np.log(total + alpha * (size - 1))
        row = np.full(size, np.log(alpha) - logden)
        for w, c in successors:
            row[w] = np.log(c + alpha) - logden
        row[bos] = -np.inf
        rows.append(row.tobytes())
    saved = {"alpha": alpha, "vocab": list(obj["vocab"]), "counts": [[v, w, c] for (v, w), c in stored]}
    return rows, json.dumps(saved, sort_keys=True)


def reference_iou(a, b) -> float:
    """The scalar IoU formula: intersection extents, 0 when either is not
    positive, then ``inter / (area_a + area_b - inter)``."""
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def reference_suppress_overlaps(dets, hier, iou_threshold):
    """Per-pair reference for ``suppress_overlaps``: one scalar IoU per
    pair of known-class detections, the qualifying hierarchy pairs
    sorted by (-IoU, removed confidence, removed, kept) and applied one
    at a time, skipping a pair whose other member is already gone."""
    work = [det for det in dets if det.class_name in hier]
    pairs = []
    for i in range(len(work)):
        for j in range(i + 1, len(work)):
            a, b = work[i], work[j]
            overlap = reference_iou(a.box, b.box)
            if overlap < iou_threshold:
                continue
            if hier.is_strict_ancestor(a.class_name, b.class_name):
                pairs.append((-overlap, a.confidence, i, j))
            elif hier.is_strict_ancestor(b.class_name, a.class_name):
                pairs.append((-overlap, b.confidence, j, i))
    removed = set()
    for _, _, remove, keep in sorted(pairs):
        if remove not in removed and keep not in removed:
            removed.add(remove)
    return [det for pos, det in enumerate(work) if pos not in removed]


def reversed_model(tmp_path) -> str:
    """``decode_model.json`` with its triples sorted by pair in reverse,
    written to ``tmp_path``. The sort is stable, so a pair's repeated
    triples stay in file order and the last still wins: the model must
    decode as the original does."""
    model = json.loads((DATA / "decode_model.json").read_text())
    model["counts"].sort(key=lambda t: t[:2], reverse=True)
    path = tmp_path / "reversed_model.json"
    path.write_text(json.dumps(model))
    return str(path)


# Every golden CLI run, as (test id, golden file in DATA, argv). The CLI
# run with argv must print the golden byte for byte. An argv entry that
# is callable is called with a temporary directory and replaced by the
# path it returns. Each id is the one the run's per-subcommand test
# gives it in test_cli.py.
_DETECTIONS = ["--detections", DATA / "detections.jsonl"]
_DECODE = ["--constraints", DATA / "decode_constraints.jsonl"]
_MODEL = ["--scorer", DATA / "decode_model.json", *_DECODE]
_INSPECT = ["--constraints", DATA / "inspect_constraints.json", "--vocab", DATA / "inspect_vocab.json"]
GOLDEN_RUNS = [
    # The 10-detection fixture exercises every filtering stage; the
    # goldens were derived by hand:
    # * full: the blacklist removes Mammal, Human eye and Tree; overlap
    #   suppression removes Vehicle (strict ancestor of Car on the same
    #   box); confidence ranking leaves Dog .9, Car .8, Cat .6.
    # * no-class: no blacklist, so overlap suppression removes Mammal
    #   (ancestor of Dog) and Vehicle; ranking leaves Human eye .99,
    #   Dog .9, Tree .85.
    # * no-overlap: blacklist only; ranking leaves Dog .9, Car .8,
    #   Vehicle .7.
    # * none: raw ranking: Human eye .99, Mammal .95, Dog .9 (the two Dog
    #   detections collapse to the higher score).
    ("full", "golden_filter_full.jsonl", ["filter", *_DETECTIONS, "--mode", "full"]),
    ("no-class", "golden_filter_no-class.jsonl", ["filter", *_DETECTIONS, "--mode", "no-class"]),
    ("no-overlap", "golden_filter_no-overlap.jsonl", ["filter", *_DETECTIONS, "--mode", "no-overlap"]),
    ("none", "golden_filter_none.jsonl", ["filter", *_DETECTIONS, "--mode", "none"]),
    # decode_model.json is a fitted model saved with duplicate and zero
    # triples appended; the goldens were frozen from the reader that
    # built a {(v, w): c} dict, so the last triple of a pair wins. The
    # reversed model holds the same triples out of pair order.
    ("default-flags0", "golden_decode_default.jsonl", ["decode", *_MODEL]),
    ("reversed-model", "golden_decode_default.jsonl", ["decode", "--scorer", reversed_model, *_DECODE]),
    ("beam-3-faithful-norm-flags1", "golden_decode_beam-3-faithful-norm.jsonl",
     ["decode", *_MODEL, "--beam-width", "3", "--max-len", "10", "--mode", "faithful", "--length-normalize"]),
    ("beam-8-fallback-off-flags2", "golden_decode_beam-8-fallback-off.jsonl",
     ["decode", *_MODEL, "--beam-width", "8", "--max-len", "12", "--fallback", "off"]),
    # five groups: self-overlapping phrases (x x, x y x), prefixes shared
    # across groups (x y x, x y z), a single-word group between phrase
    # groups; the goldens were frozen from the compiler that built one
    # label tuple per state
    ("failure-False", "golden_inspect_failure.txt", ["inspect-fsm", *_INSPECT, "--mode", "failure"]),
    ("failure-True", "golden_inspect_failure-transitions.txt",
     ["inspect-fsm", *_INSPECT, "--mode", "failure", "--transitions"]),
    ("faithful-False", "golden_inspect_faithful.txt", ["inspect-fsm", *_INSPECT, "--mode", "faithful"]),
    ("faithful-True", "golden_inspect_faithful-transitions.txt",
     ["inspect-fsm", *_INSPECT, "--mode", "faithful", "--transitions"]),
    # 2000 seeded images over 40 classes; goldens frozen from the
    # full-recount sampler
    ("7-5-350", "golden_sample_seed-7.jsonl",
     ["sample", "--images", DATA / "sample_images.jsonl", "--target", "350", "--candidates", "5", "--seed", "7"]),
    ("11-3-300", "golden_sample_seed-11.jsonl",
     ["sample", "--images", DATA / "sample_images.jsonl", "--target", "300", "--candidates", "3", "--seed", "11"]),
    # 400 seeded captions with punctuation, case, repeated phrases, a few
    # pre-tokenized lists (one mixing 1 with "1") and an empty caption
    ("4", "golden_stats_n-max-4.jsonl", ["stats", "--captions", DATA / "stats_captions.jsonl", "--n-max", "4"]),
    ("6", "golden_stats_n-max-6.jsonl", ["stats", "--captions", DATA / "stats_captions.jsonl", "--n-max", "6"]),
]
