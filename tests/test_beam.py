import dataclasses
import itertools
import random
import re
from collections import Counter

import numpy as np
import pytest

from lexbeam import (
    BOS,
    BigramModel,
    ConstraintGroup,
    DecodeConfig,
    DecodeResult,
    PhraseMatchMode,
    Vocabulary,
    compile_fsm,
    decode,
    decode_unconstrained,
)
from lexbeam import beam
from lexbeam.beam import _candidates, _rows
from lexbeam.errors import (
    LexbeamError,
    MalformedConfigError,
    NoHypothesisError,
    ScorerContractError,
    VocabMismatchError,
)

from helpers import (
    TableScorer,
    constrained_argmax,
    dense_candidates,
    groups_to_ids,
    plain_beam_search,
    quantised_table,
    random_bigram,
    random_groups,
    reference_decode,
    scan_satisfied,
    sequence_logprob,
    winner,
)


def exhaustive_width(vocab, max_len):
    # every content/start token may extend a hypothesis; the end token
    # only finishes them
    return (len(vocab) - 1) ** max_len


def test_two_constraints_match_bruteforce_argmax():
    vocab = Vocabulary(["a", "b", "c"])
    model = BigramModel.fit(["a a b", "c a", "b c"], alpha=1.0, vocab=vocab)
    groups = [ConstraintGroup("b", (("b",),)), ConstraintGroup("c", (("c",),))]
    fsm = compile_fsm(groups, 2, vocab)
    result = decode(model, fsm, DecodeConfig(beam_width=64, max_len=4))
    expected = constrained_argmax(model, groups_to_ids(groups, vocab), 2, 4)
    assert result.logprob == pytest.approx(expected[0], abs=1e-9)
    assert result.tokens == expected[1] + (vocab.eos_id,)
    assert result.satisfied_count == 2


def test_fallback_tier_when_quota_is_unreachable():
    vocab = Vocabulary(["a", "b", "c"])
    model = BigramModel.fit(["a b", "c"], alpha=1.0, vocab=vocab)
    groups = [ConstraintGroup("b", (("b",),)), ConstraintGroup("c", (("c",),))]
    fsm = compile_fsm(groups, 2, vocab)
    result = decode(model, fsm, DecodeConfig(beam_width=64, max_len=1))
    assert result.satisfied_count == 1
    expected = constrained_argmax(model, groups_to_ids(groups, vocab), 1, 1)
    assert result.logprob == pytest.approx(expected[0], abs=1e-9)


def test_no_hypothesis_when_fallback_disabled():
    vocab = Vocabulary(["a", "b", "c"])
    model = BigramModel.fit(["a b c"], vocab=vocab)
    groups = [ConstraintGroup("b", (("b",),)), ConstraintGroup("c", (("c",),))]
    fsm = compile_fsm(groups, 2, vocab)
    with pytest.raises(NoHypothesisError):
        decode(
            model,
            fsm,
            DecodeConfig(beam_width=64, max_len=1, min_satisfied_fallback=False),
        )


def test_fallback_raises_when_no_hypothesis_can_finish():
    # the end sentinel has probability zero after every prefix, so no
    # tier has a finalist for the fallback to choose from
    vocab = Vocabulary(["a", "b"])
    row = [-np.inf, -np.inf, np.log(0.5), np.log(0.5)]
    scorer = TableScorer(vocab, {}, default=row)
    groups = [ConstraintGroup("a", (("a",),))]
    for fsm in (compile_fsm([], 0, vocab), compile_fsm(groups, 1, vocab)):
        with pytest.raises(NoHypothesisError, match="at any satisfaction tier"):
            decode(scorer, fsm, DecodeConfig(beam_width=3, max_len=4))


def test_empty_constraints_equal_unconstrained_bitwise():
    rng = random.Random(42)
    for _ in range(20):
        vocab = Vocabulary([f"w{i}" for i in range(rng.randint(1, 4))])
        model = random_bigram(rng, vocab)
        cfg = DecodeConfig(beam_width=rng.randint(1, 6), max_len=rng.randint(1, 5))
        via_fsm = decode(model, compile_fsm([], 0, vocab), cfg)
        direct = decode_unconstrained(model, cfg.beam_width, cfg.max_len)
        assert via_fsm == direct
        # decode_unconstrained's definition, asked for finalists: DecodeResult
        # equality compares every state's finalists too
        full = decode(model, compile_fsm([], 0, vocab), dataclasses.replace(cfg, finalists=True))
        assert full == plain_beam_search(model, cfg.beam_width, cfg.max_len)
        assert winner(direct) == winner(full)


def oracle_cases():
    """Small random problems the exhaustive oracle can check: bigram
    models, then tie-heavy tables whose rows take only a few probability
    levels, so many sequences score exactly alike."""
    rng = random.Random(2718)
    for tie_heavy in [False] * 40 + [True] * 40:
        size = rng.randint(2, 3)
        vocab = Vocabulary([f"w{i}" for i in range(size)])
        model = quantised_table(rng, vocab, 4) if tie_heavy else random_bigram(rng, vocab)
        groups = random_groups(rng, vocab, max_groups=2, max_phrase_len=2)
        quota = rng.randint(1, len(groups))
        max_len = rng.randint(3, 4)
        yield model, groups, quota, max_len


def test_randomized_oracle_optimality():
    for model, groups, quota, max_len in oracle_cases():
        vocab = model.vocab
        fsm = compile_fsm(groups, quota, vocab)
        result = decode(
            model,
            fsm,
            DecodeConfig(beam_width=exhaustive_width(vocab, max_len), max_len=max_len),
        )
        expected = constrained_argmax(model, groups_to_ids(groups, vocab), quota, max_len)
        if expected is None or expected[0] == float("-inf"):
            continue
        assert result.satisfied_count >= quota
        assert result.logprob == pytest.approx(expected[0], abs=1e-9)
        assert result.tokens == expected[1] + (vocab.eos_id,)


class _Recording:
    """Forwards a scorer, records every prefix it is asked to score, and
    declares ``context_size`` only when one is given."""

    def __init__(self, scorer, context_size):
        self.vocab = scorer.vocab
        self._scorer = scorer
        self.prefixes = []
        if context_size is not None:
            self.context_size = context_size

    def next_logprobs(self, prefix):
        self.prefixes.append(tuple(prefix))
        return self._scorer.next_logprobs(prefix)


def test_declared_context_size_does_not_change_results():
    # a bigram model with its context size hidden is scored per prefix;
    # a table declaring a context as long as any prefix is scored per
    # context; both must decode exactly as the scorer itself does
    for model, groups, quota, max_len in oracle_cases():
        declared = getattr(model, "context_size", None)
        other = _Recording(model, None if declared else max_len)
        fsm = compile_fsm(groups, quota, model.vocab)
        for width in (1, 2, exhaustive_width(model.vocab, max_len)):
            cfg = DecodeConfig(beam_width=width, max_len=max_len)
            assert decode(other, fsm, cfg) == decode(model, fsm, cfg)


def test_rounding_tie_below_the_raw_cut_keeps_both_tokens():
    # after "c" (logprob log 0.7), "a" scores one ulp below "b" in the
    # raw row, yet both sums round to the same value; a one-wide beam
    # must see the tie and keep the smaller sequence "c a"
    vocab = Vocabulary(["a", "b", "c"])
    a, b, c, eos = vocab.id("a"), vocab.id("b"), vocab.id("c"), vocab.eos_id
    hi = np.log(0.5)
    lo = np.nextafter(hi, -np.inf)
    after_c = np.full(len(vocab), -np.inf)
    after_c[a], after_c[b] = lo, hi
    root = np.full(len(vocab), -np.inf)
    root[a], root[b], root[c] = np.log([0.15, 0.15, 0.7])
    done = np.full(len(vocab), -np.inf)
    done[eos] = 0.0
    assert root[c] + lo == root[c] + hi
    scorer = TableScorer(vocab, {(): root, (c,): after_c}, default=done)
    for context_size in (None, 3):
        result = decode_unconstrained(_Recording(scorer, context_size), beam_width=1, max_len=2)
        assert result.tokens == (c, a, eos)
        assert result.logprob == root[c] + lo


def test_one_scorer_call_per_distinct_context_per_decode():
    rng = random.Random(11)
    vocab = Vocabulary([f"w{i}" for i in range(40)])
    model = random_bigram(rng, vocab)
    groups = random_groups(rng, vocab, max_groups=3, max_phrase_len=2)
    fsm = compile_fsm(groups, 2, vocab)
    cfg = DecodeConfig(beam_width=3, max_len=8)
    per_prefix = _Recording(model, None)
    reference = decode(per_prefix, fsm, cfg)
    # the contexts are the last tokens (or none) of the scored prefixes
    contexts = {prefix[-1:] for prefix in per_prefix.prefixes}
    assert len(per_prefix.prefixes) > len(contexts)
    per_context = _Recording(model, model.context_size)
    assert decode(per_context, fsm, cfg) == reference
    scored = [prefix[-1:] for prefix in per_context.prefixes]
    assert len(scored) == len(set(scored))
    assert set(scored) == contexts
    # nothing is cached from one call to the next
    assert decode(per_context, fsm, cfg) == reference
    assert [prefix[-1:] for prefix in per_context.prefixes] == scored * 2


class _LastTwo:
    """A table scorer whose row depends on the last two tokens of the
    prefix (on all of it when shorter): one random row per such tuple,
    the start sentinel at -inf. Declares no ``context_size``."""

    def __init__(self, rng, vocab):
        self.vocab = vocab
        size = len(vocab)
        predictable = np.arange(size) != vocab.bos_id
        self.rows = {}
        for n in range(3):
            for key in itertools.product(range(size), repeat=n):
                weights = np.array([rng.random() + 1e-3 for _ in range(size)])[predictable]
                row = np.full(size, -np.inf)
                row[predictable] = np.log(weights / weights.sum())
                self.rows[key] = row

    def next_logprobs(self, prefix):
        return self.rows[tuple(prefix)[-2:]]


def test_one_scorer_call_per_distinct_last_k_tokens():
    # rows that really depend on the last two tokens, declared with a
    # context of 2 or 3 tokens or none: contexts sharing a tail (the key
    # without its first token) lead to the same children, and each
    # distinct last-k tuple is scored once
    rng = random.Random(37)
    vocab = Vocabulary([f"w{i}" for i in range(6)])
    base = _LastTwo(rng, vocab)
    calls = Counter()
    for _ in range(25):
        groups = random_groups(rng, vocab, max_groups=3, max_phrase_len=2)
        fsm = compile_fsm(groups, rng.randint(0, len(groups)), vocab, rng.choice(list(PhraseMatchMode)))
        cfg = DecodeConfig(beam_width=rng.randint(1, 4), max_len=rng.randint(3, 7), finalists=True)
        want = _reference_outcome(base, fsm, cfg)
        per_prefix = _Recording(base, None)
        assert _outcome(per_prefix, fsm, cfg) == want
        assert len(per_prefix.prefixes) == len(set(per_prefix.prefixes))
        calls[None] += len(per_prefix.prefixes)
        for k in (2, 3):
            per_context = _Recording(base, k)
            assert _outcome(per_context, fsm, cfg) == want
            scored = [prefix[-k:] for prefix in per_context.prefixes]
            assert len(scored) == len(set(scored))
            assert set(scored) == {prefix[-k:] for prefix in per_prefix.prefixes}
            calls[k] += len(scored)
    assert calls[None] > calls[3] > calls[2], calls


@pytest.mark.parametrize("context_size", [-1, 1.5, "1", True, False, np.int64(1)])
def test_context_size_must_be_none_or_a_non_negative_int(context_size):
    vocab = Vocabulary(["a", "b"])
    model = BigramModel.fit(["a b", "b a"], vocab=vocab)
    with pytest.raises(ScorerContractError, match=re.escape(repr(context_size))):
        decode_unconstrained(_Recording(model, context_size), beam_width=2, max_len=3)


def test_context_size_zero_scores_one_row_per_decode():
    # a row that depends on no token of the prefix
    rng = random.Random(3)
    vocab = Vocabulary(["a", "b", "c"])
    weights = np.array([0.0] + [rng.random() + 0.1 for _ in range(len(vocab) - 1)])
    with np.errstate(divide="ignore"):
        scorer = TableScorer(vocab, {}, default=np.log(weights / weights.sum()))
    fsm = compile_fsm([ConstraintGroup("b", (("b", "c"),))], 1, vocab)
    cfg = DecodeConfig(beam_width=3, max_len=5, finalists=True)
    recording = _Recording(scorer, 0)
    assert decode(recording, fsm, cfg) == reference_decode(scorer, fsm, cfg)
    assert recording.prefixes == [()]


@pytest.mark.parametrize("n_groups", [14, 15, 16])
def test_decode_past_int16_state_ids_matches_the_reference(n_groups):
    # one-word groups compile to 2**n_groups states: below 2**15 the
    # table is int16, from 2**15 on int32, and at 2**16 ids pass int16
    rng = random.Random(n_groups)
    vocab = Vocabulary([f"w{i}" for i in range(18)])
    model = random_bigram(rng, vocab)
    groups = [ConstraintGroup(f"g{g}", ((f"w{g}",),)) for g in range(n_groups)]
    fsm = compile_fsm(groups, 2, vocab)
    assert fsm.state_count == 2**n_groups
    assert fsm.table.dtype == (np.int16 if n_groups < 15 else np.int32)
    cfg = DecodeConfig(beam_width=1, max_len=3, finalists=True)
    result = decode(model, fsm, cfg)
    assert result == reference_decode(model, fsm, cfg)
    assert max(result.per_state_finalists) >= 2**(n_groups - 1)
    assert result.per_state_finalists._arrays[0].dtype == np.int16  # 20 vocabulary entries


def test_decode_makes_no_copy_of_the_table():
    import tracemalloc

    # 12 groups of four one-word alternatives: 4096 states x 49 columns
    rng = random.Random(12)
    vocab = Vocabulary([f"w{i}" for i in range(50)])
    model = random_bigram(rng, vocab)
    groups = [ConstraintGroup(f"g{g}", tuple((f"w{4 * g + a}",) for a in range(4))) for g in range(12)]
    fsm = compile_fsm(groups, 1, vocab)
    cfg = DecodeConfig(beam_width=1, max_len=1)
    decode(model, fsm, cfg)  # anything built once per model or machine is built now
    tracemalloc.start()
    try:
        decode(model, fsm, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # below an int16 copy of the table, which is the table itself
    assert peak < 2 * fsm.table.size
    assert fsm.table.nbytes == 2 * fsm.table.size


def test_wide_beams_over_few_plain_tokens_stay_small():
    import tracemalloc

    # README's quickstart model: 10 tokens, 8 of them plain. A block
    # holds at most every plain token, however wide the beam.
    corpus = ["a dog ran in the park", "the dog ran after the ball"]
    vocab = Vocabulary(sorted({w for s in corpus for w in s.split()}))
    model = BigramModel.fit(corpus, alpha=0.1, vocab=vocab)
    groups = [ConstraintGroup("dog", (("dog",),)), ConstraintGroup("ball", (("ball",),))]
    fsm = compile_fsm(groups, 2, vocab)
    narrow = decode(model, fsm, DecodeConfig(beam_width=6, max_len=10))
    cfg = DecodeConfig(beam_width=256, max_len=10)
    rows = fsm.state_count * cfg.beam_width  # live hypotheses per step, at most
    tracemalloc.start()
    try:
        result = decode(model, fsm, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # O(rows * V), never O(rows * beam_width)
    assert peak < 256 * rows * len(vocab)
    assert result.tokens == narrow.tokens and result.satisfied_count == 2


def test_constraint_guarantee_via_substring_scan():
    rng = random.Random(31)
    for _ in range(60):
        vocab = Vocabulary([f"w{i}" for i in range(rng.randint(2, 4))])
        model = random_bigram(rng, vocab)
        groups = random_groups(rng, vocab, max_groups=2, max_phrase_len=2)
        quota = rng.randint(1, len(groups))
        fsm = compile_fsm(groups, quota, vocab)
        try:
            result = decode(
                model,
                fsm,
                DecodeConfig(
                    beam_width=4, max_len=6, min_satisfied_fallback=False
                ),
            )
        except NoHypothesisError:
            continue
        content = vocab.strip_sentinels(result.tokens)
        assert scan_satisfied(content, groups_to_ids(groups, vocab)) >= quota


def test_constrained_never_beats_unconstrained_with_exhaustive_beams():
    rng = random.Random(90125)
    for _ in range(15):
        vocab = Vocabulary([f"w{i}" for i in range(2)])
        model = random_bigram(rng, vocab)
        groups = random_groups(rng, vocab, max_groups=2, max_phrase_len=2)
        max_len = 4
        width = exhaustive_width(vocab, max_len)
        fsm = compile_fsm(groups, len(groups), vocab)
        constrained = decode(model, fsm, DecodeConfig(beam_width=width, max_len=max_len))
        unconstrained = decode_unconstrained(model, width, max_len)
        assert constrained.logprob <= unconstrained.logprob + 1e-12


def test_ties_break_toward_lexicographically_smallest_sequence():
    vocab = Vocabulary(["u", "v"])
    no_end = np.log(np.full(len(vocab), 1 / (len(vocab) - 1)))
    no_end[vocab.eos_id] = -np.inf
    uniform = np.log(np.full(len(vocab), 1 / len(vocab)))
    scorer = TableScorer(vocab, {(): no_end}, default=uniform)
    result = decode_unconstrained(scorer, beam_width=2, max_len=1)
    # every single-token caption has identical score; smallest token id wins
    assert result.tokens == (vocab.bos_id, vocab.eos_id)
    again = decode_unconstrained(scorer, beam_width=2, max_len=1)
    assert result == again


def test_tie_across_source_states_keeps_lexicographically_smallest():
    # "a" satisfies the group (state 1) while "b" does not (state 0);
    # "a c" and "b a" both land in state 1 with exactly equal scores, and
    # a one-wide beam must keep the lexicographically smaller "a c" even
    # though its parent lives in the higher-numbered state
    vocab = Vocabulary(["a", "b", "c"])
    a, b, c, eos = vocab.id("a"), vocab.id("b"), vocab.id("c"), vocab.eos_id

    def row(**probs):
        vec = np.zeros(len(vocab))
        for tok, p in probs.items():
            vec[{"a": a, "b": b, "c": c, "eos": eos}[tok]] = p
        with np.errstate(divide="ignore"):
            return np.log(vec)

    scorer = TableScorer(
        vocab,
        {
            (): row(a=0.4, b=0.4, c=0.2),
            (a,): row(a=0.25, b=0.25, c=0.5),
            (b,): row(a=0.5, b=0.25, c=0.25),
        },
        default=row(eos=1.0),
    )
    fsm = compile_fsm([ConstraintGroup("a", (("a",),))], 1, vocab)
    assert fsm.run([a, c]) == fsm.run([b, a]) != fsm.run([b])
    cfg = DecodeConfig(beam_width=1, max_len=2, min_satisfied_fallback=False)
    result = decode(scorer, fsm, cfg)
    assert result.tokens == (a, c, eos)
    assert result.logprob == np.log(0.4) + np.log(0.5) + 0.0


def test_zero_probability_caption_is_never_returned():
    # the start sentinel has probability zero under a bigram model, so
    # every caption satisfying this group has logprob -inf
    vocab = Vocabulary(["a", "b"])
    model = BigramModel.fit(["a b", "b a"], vocab=vocab)
    fsm = compile_fsm([ConstraintGroup("s", ((BOS,),))], 1, vocab)
    cfg = DecodeConfig(beam_width=4, max_len=3, min_satisfied_fallback=False)
    with pytest.raises(NoHypothesisError):
        decode(model, fsm, cfg)
    result = decode(model, fsm, DecodeConfig(beam_width=4, max_len=3))
    assert result.satisfied_count == 0
    assert np.isfinite(result.logprob)
    for finalists in result.per_state_finalists.values():
        assert all(np.isfinite(hyp.logprob) for hyp in finalists)


def test_deterministic_across_repeats():
    rng = random.Random(808)
    vocab = Vocabulary(["a", "b", "c"])
    model = random_bigram(rng, vocab)
    groups = random_groups(rng, vocab, max_groups=2, max_phrase_len=2)
    fsm = compile_fsm(groups, 1, vocab)
    cfg = DecodeConfig(beam_width=3, max_len=5)
    assert decode(model, fsm, cfg) == decode(model, fsm, cfg)


def test_finalist_states_are_consistent_with_their_tokens():
    rng = random.Random(99)
    vocab = Vocabulary(["a", "b", "c"])
    model = random_bigram(rng, vocab)
    groups = random_groups(rng, vocab, max_groups=2, max_phrase_len=2)
    fsm = compile_fsm(groups, 1, vocab)
    result = decode(model, fsm, DecodeConfig(beam_width=4, max_len=4, finalists=True))
    assert result.per_state_finalists
    for state, finalists in result.per_state_finalists.items():
        for hyp in finalists:
            assert hyp.fsm_state == state
            assert fsm.run(hyp.tokens) == state
            assert hyp.logprob == pytest.approx(
                sequence_logprob(model, hyp.tokens[:-1]), abs=1e-9
            )


def test_finisher_ties_at_a_states_bar_across_steps_keep_the_token_order():
    # beam 2, one state: (eos) and (b, eos) set the bar at step 1; at
    # steps 2 and 3 finishers tied with it arrive, and (a, c, eos) is
    # the second finalist, as it precedes (b, eos) in token order
    vocab = Vocabulary(["a", "b", "c"])
    a, b, c, eos = vocab.id("a"), vocab.id("b"), vocab.id("c"), vocab.eos_id

    def row(**probs):
        out = np.full(len(vocab), -np.inf)
        for token, p in probs.items():
            out[vocab.id(token) if token != "eos" else eos] = np.log(p)
        return out

    scorer = TableScorer(
        vocab,
        {(): row(eos=0.5, a=0.25, b=0.25), (a,): row(c=1.0), (b,): row(eos=0.5, c=0.5), (a, c): row(eos=0.5, c=0.5)},
        default=row(eos=1.0),
    )
    fsm = compile_fsm([], 0, vocab)
    cfg = DecodeConfig(beam_width=2, max_len=3, finalists=True)
    result, want = decode(scorer, fsm, cfg), reference_decode(scorer, fsm, cfg)
    assert result == want
    assert [hyp.tokens for hyp in result.per_state_finalists[fsm.initial_state]] == [(eos,), (a, c, eos)]


def test_greedy_beam_matches_repeated_argmax():
    vocab = Vocabulary(["a", "b"])
    a, b, eos = vocab.id("a"), vocab.id("b"), vocab.eos_id

    def row(**probs):
        vec = np.full(len(vocab), 1e-9)
        for tok, p in probs.items():
            vec[{"a": a, "b": b, "eos": eos}[tok]] = p
        vec = np.log(vec / vec.sum())
        return vec

    scorer = TableScorer(
        vocab,
        {
            (): row(a=0.9, b=0.1),
            (a,): row(b=0.8, a=0.1, eos=0.1),
            (a, b): row(eos=0.95, a=0.05),
        },
        default=row(eos=1.0),
    )
    result = decode_unconstrained(scorer, beam_width=1, max_len=5)
    # repeated argmax: a, then b, then end
    assert result.tokens == (a, b, eos)


def test_immediate_end_gives_empty_caption_with_logprob_zero():
    vocab = Vocabulary(["a"])
    eos_row = np.full(len(vocab), -np.inf)
    eos_row[vocab.eos_id] = 0.0
    scorer = TableScorer(vocab, {}, default=eos_row)
    result = decode_unconstrained(scorer, beam_width=2, max_len=3)
    assert result.tokens == (vocab.eos_id,)
    assert result.logprob == 0.0


def test_vocab_mismatch_raises():
    v1 = Vocabulary(["a"])
    v2 = Vocabulary(["a", "b"])
    model = BigramModel.fit(["a"], vocab=v1)
    fsm = compile_fsm([], 0, v2)
    with pytest.raises(VocabMismatchError):
        decode(model, fsm)


def test_length_normalization_changes_selection_not_reported_logprob():
    vocab = Vocabulary(["a", "b"])
    a, b, eos = vocab.id("a"), vocab.id("b"), vocab.eos_id

    def norm(vec):
        vec = np.asarray(vec, dtype=float)
        with np.errstate(divide="ignore"):
            return np.log(vec / vec.sum())

    # short caption: lp("a") = log(.6 * .5); long: lp("b b b") decays slower
    # per token, so normalization prefers it.
    rows = {
        (): norm([0, 0, 0.6, 0.4]),
        (a,): norm([0, 0.5, 0.25, 0.25]),
        (b,): norm([0, 0.1, 0.01, 0.89]),
        (b, b): norm([0, 0.1, 0.01, 0.89]),
        (b, b, b): norm([0, 0.9, 0.05, 0.05]),
    }
    scorer = TableScorer(vocab, rows, default=norm([0, 1.0, 0.001, 0.001]))
    raw = decode_unconstrained(scorer, beam_width=8, max_len=3)
    cfg = DecodeConfig(beam_width=8, max_len=3, length_normalize=True)
    normalized = decode(scorer, compile_fsm([], 0, vocab), cfg)
    assert raw.tokens != normalized.tokens
    assert normalized.logprob == pytest.approx(
        sequence_logprob(scorer, normalized.tokens[:-1]), abs=1e-12
    )


class _Broken:
    """Returns ``row`` for the prefix ``(0,)`` and a uniform row otherwise."""

    def __init__(self, vocab, row):
        self.vocab, self.row = vocab, row

    def next_logprobs(self, prefix):
        if tuple(prefix) == (0,):
            return self.row
        return np.log(np.full(len(self.vocab), 1 / len(self.vocab)))


class _BrokenSparse:
    """Serves ``row`` as the sparse row of the prefix ``(0,)`` and a
    uniform sparse row otherwise."""

    def __init__(self, vocab, row):
        self.vocab, self.row = vocab, row

    def sparse_logprobs(self, prefix):
        if tuple(prefix) == (0,):
            return self.row
        return np.log(1 / len(self.vocab)), np.array([0]), np.array([np.log(1 / len(self.vocab))])


def test_scorer_contract_violations_raise():
    vocab = Vocabulary(["a", "b"])
    nan_row = np.log(np.full(len(vocab), 1 / len(vocab)))
    nan_row[vocab.id("a")] = np.nan
    long_row = np.log(np.full(len(vocab) + 1, 1 / (len(vocab) + 1)))
    inf_row = np.array([-np.inf, np.log(0.5), np.inf, np.log(0.5)])
    # scores are log-probabilities: the decoder's early stop relies on none being above 0
    positive_row = np.array([-np.inf, np.log(0.5), 0.5, np.log(0.5)])
    for row in (nan_row, inf_row, positive_row, long_row, long_row.reshape(1, -1)):
        with pytest.raises(ScorerContractError):
            decode_unconstrained(_Broken(vocab, row), beam_width=4, max_len=3)
    # sparse rows: (default, ids, values) over ids 0..3
    half = np.log(0.5)
    for message, row in [
        ("not sorted", (half, np.array([3, 2]), np.array([half, half]))),
        ("not sorted", (half, np.array([2, 2]), np.array([half, half]))),
        ("not sorted", (half, np.array([-1, 2]), np.array([half, half]))),
        ("not sorted", (half, np.array([2, 4]), np.array([half, half]))),
        ("not sorted", (half, np.array([2.0, 3.0]), np.array([half, half]))),
        ("shape", (half, np.array([2, 3]), np.array([half]))),
        ("shape", (half, np.array([[2, 3]]), np.array([[half, half]]))),
        ("NaN", (np.nan, np.array([2, 3]), np.array([half, half]))),
        ("NaN", (half, np.array([2, 3]), np.array([half, np.nan]))),
        ("NaN", (np.nan, np.array([], dtype=int), np.array([]))),
        ("[+]inf", (np.inf, np.array([0]), np.array([-np.inf]))),
        ("[+]inf", (-np.inf, np.array([0, 1, 2, 3]), np.array([-np.inf, half, np.inf, half]))),
        ("above 0", (0.25, np.array([2, 3]), np.array([half, half]))),
        ("above 0", (half, np.array([2, 3]), np.array([half, np.nextafter(0.0, 1.0)]))),
    ]:
        with pytest.raises(ScorerContractError, match=message):
            decode_unconstrained(_BrokenSparse(vocab, row), beam_width=4, max_len=3)
    # an empty list of ids is no violation
    decode_unconstrained(_BrokenSparse(vocab, (half, [], [])), beam_width=4, max_len=3)
    assert issubclass(ScorerContractError, LexbeamError)


def _layout(size, eos, tokens):
    """The decoder's split of the vocabulary for a machine whose
    constraint tokens are ``tokens``."""
    is_plain = np.ones(size, dtype=bool)
    is_plain[tokens] = is_plain[eos] = False
    special = np.array([t for t in sorted(set(tokens)) if t != eos], dtype=int)
    plain = np.setdiff1d(np.arange(size), np.append(tokens, eos))
    return special, plain, is_plain


def test_sparse_blocks_match_the_dense_reference():
    # the block built from (default, ids, values) equals the block built
    # from the full row: tokens, scores, cut and lower, row by row
    rng = random.Random(1414)
    edges = Counter()
    for _ in range(400):
        vocab = Vocabulary([f"w{i}" for i in range(rng.randint(0, 30))])
        size, eos, bos = len(vocab), vocab.eos_id, vocab.bos_id
        counts = {
            (rng.randrange(size), rng.randrange(size)): rng.randrange(0, 4)
            for _ in range(rng.choice([0, 2, size, 3 * size]))
        }
        # with alpha 2**60, count + alpha rounds to alpha: listed values equal the default
        model = BigramModel(vocab, counts, rng.choice([1e-3, 0.1, 1.0, 2.0**60]))
        tokens = rng.sample(range(size), rng.randint(0, min(11, size)))
        special, plain, is_plain = _layout(size, eos, tokens)
        head = np.append(eos, special)
        read = _rows(model, size)
        for width in (1, 3, 5):
            for prefix in [()] + [(v,) for v in range(size)]:
                offset = rng.choice([0.0, 0.0, -rng.uniform(0, 40), -(10.0 ** rng.uniform(0, 17))])
                row = read(prefix)
                got = _candidates(row, offset, head, plain, is_plain, width, min(2 * width - 1, max(plain.size, 1)))
                want = dense_candidates(model.next_logprobs(prefix), offset, eos, special, plain, width)
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])
                assert (got[2], got[3]) == (want[2], want[3])
                default, ids, values = row
                listed = is_plain[ids]
                edges["listed equals default"] += bool((values[listed] == default).any())
                edges["<s> counted"] += counts.get(((prefix or (bos,))[-1], bos), 0) > 0
                edges["fewer listed than width"] += 0 < listed.sum() < width < plain.size
                edges["plain within width"] += plain.size <= width
                edges["default at the cut"] += default + offset == want[2]
    for edge in ("listed equals default", "<s> counted", "fewer listed than width", "plain within width", "default at the cut"):
        assert edges[edge] >= 50, edges


class _TieRows:
    """A scorer conditioned on the last token whose rows take a few
    levels, some nudged by one ulp, served as one default plus listed
    exceptions; ``next_logprobs`` densifies the same rows."""

    context_size = 1

    def __init__(self, rng, vocab):
        self.vocab = vocab
        size = len(vocab)
        levels = [np.log(0.5), np.log(0.25), np.log(0.125), -np.inf]
        self.rows = []
        for _ in range(size):
            ids = sorted(rng.sample(range(size), rng.randint(0, size)))
            values = [rng.choice(levels) for _ in ids]
            values = [
                np.nextafter(v, rng.choice([-np.inf, np.inf])) if v > -np.inf and rng.random() < 0.3 else v
                for v in values
            ]
            self.rows.append((rng.choice(levels), np.array(ids, dtype=int), np.array(values, dtype=float)))

    def sparse_logprobs(self, prefix):
        return self.rows[prefix[-1] if prefix else self.vocab.bos_id]

    def next_logprobs(self, prefix):
        default, ids, values = self.sparse_logprobs(prefix)
        row = np.full(len(self.vocab), default)
        row[ids] = values
        return row


def _outcome(scorer, fsm, cfg):
    try:
        return decode(scorer, fsm, cfg)
    except NoHypothesisError as exc:
        return type(exc), str(exc)


def _reference_outcome(scorer, fsm, cfg):
    try:
        return reference_decode(scorer, fsm, cfg)
    except NoHypothesisError as exc:
        return type(exc), str(exc)


def test_decode_matches_the_reference_search(monkeypatch):
    # the whole result, finalists included, against a plain search with
    # no blocks and no floor, decoded from the scorer's sparse rows and
    # from its dense rows with the sparse method hidden; the floor has
    # to drop candidates in many problems, and the rounding-tie rebuild
    # has to run. The default config, which stops once the winner is
    # settled, must pick the same winner (or raise the same error),
    # reading fewer rows in many problems and the same rows under
    # length_normalize; its rows are read through a declared context of
    # 1, 2 or none
    survivors, candidates = beam._survivors, beam._candidates
    seen = Counter()

    def counted_survivors(lp, target, bound, n_states):
        at = survivors(lp, target, bound, n_states)
        seen["dropped"] += int((lp[:, 1:] > -np.inf).sum()) - at.size
        return at

    def counted_candidates(row, offset, *layout):
        seen["rebuilt"] += offset != 0.0  # a rebuilt row's logprob is never 0
        return candidates(row, offset, *layout)

    def settled(outcome):
        return winner(outcome) if isinstance(outcome, DecodeResult) else outcome

    monkeypatch.setattr(beam, "_survivors", counted_survivors)
    monkeypatch.setattr(beam, "_candidates", counted_candidates)
    rng = random.Random(1515)
    kinds = Counter()
    problems = 1500
    for problem in range(problems):
        vocab = Vocabulary([f"w{i}" for i in range(rng.randint(1, 8))])
        if problem % 2:
            scorer = _TieRows(rng, vocab)
        else:
            counts = {(rng.randrange(len(vocab)), rng.randrange(len(vocab))): rng.randrange(0, 4) for _ in range(8)}
            scorer = BigramModel(vocab, counts, rng.choice([1e-3, 0.1, 1.0, 2.0]))
        groups = random_groups(rng, vocab, max_groups=3, max_phrase_len=2)
        mode = rng.choice(list(PhraseMatchMode))
        fsm = compile_fsm(groups, rng.randint(0, len(groups)), vocab, mode)
        cfg = DecodeConfig(
            beam_width=rng.randint(1, rng.randint(1, 8)),  # narrow beams more often, where the floor bites
            max_len=rng.randint(1, 7),
            min_satisfied_fallback=rng.random() < 0.5,
            length_normalize=rng.random() < 0.2,
            finalists=True,
        )
        seen["dropped"] = 0
        want = _reference_outcome(scorer, fsm, cfg)
        for got in (_outcome(scorer, fsm, cfg), _outcome(_Recording(scorer, scorer.context_size), fsm, cfg)):
            assert got == want
            if isinstance(want, DecodeResult):
                assert list(got.per_state_finalists) == list(want.per_state_finalists)
        kinds["floor dropped"] += seen["dropped"] > 0
        kinds[type(want).__name__, mode] += 1
        rebuilt = seen["rebuilt"]  # the decodes below do not count toward the rebuild gate
        declared = (None, 1, 2)[problem % 3]
        full_rows, early_rows = _Recording(scorer, declared), _Recording(scorer, declared)
        assert settled(_outcome(full_rows, fsm, cfg)) == settled(want)
        early = dataclasses.replace(cfg, finalists=False)
        for got in (_outcome(scorer, fsm, early), _outcome(early_rows, fsm, early)):
            assert settled(got) == settled(want)
            assert not isinstance(got, DecodeResult) or got.per_state_finalists == {}
        # the stop cuts the full search short and changes nothing before it
        assert early_rows.prefixes == full_rows.prefixes[:len(early_rows.prefixes)]
        if cfg.length_normalize:
            assert early_rows.prefixes == full_rows.prefixes
        kinds["fewer rows"] += len(early_rows.prefixes) < len(full_rows.prefixes)
        seen["rebuilt"] = rebuilt
    assert kinds["floor dropped"] >= 0.3 * problems, kinds
    assert kinds["fewer rows"] >= 0.2 * problems, kinds  # 428 of 1500 when written
    assert seen["rebuilt"] >= 40, seen  # both first decodes count: 20 each
    assert min(kinds[kind, mode] for kind in ("DecodeResult", "tuple") for mode in PhraseMatchMode) >= 50, kinds


class _SparseOnly(BigramModel):
    def next_logprobs(self, prefix):
        raise AssertionError("the decoder read a dense row")


def test_decode_reads_sparse_rows_only_when_offered():
    corpus = ["a b c", "c a", "b b a c"]
    vocab = Vocabulary(["a", "b", "c", "d"])
    model = BigramModel.fit(corpus, alpha=0.5, vocab=vocab)
    sparse_only = _SparseOnly.fit(corpus, alpha=0.5, vocab=vocab)
    fsm = compile_fsm([ConstraintGroup("c", (("c", "a"),))], 1, vocab)
    cfg = DecodeConfig(beam_width=2, max_len=5)
    assert decode(sparse_only, fsm, cfg) == decode(model, fsm, cfg) == decode(_Recording(model, 1), fsm, cfg)
    with pytest.raises(AssertionError, match="dense row"):
        decode(_Recording(sparse_only, 1), fsm, cfg)


def test_finalists_share_one_int_object_per_token_id():
    # ids above 256 are not cached by the interpreter, so without sharing
    # each finalist would hold its own int objects
    vocab = Vocabulary([f"w{i}" for i in range(400)])
    words = [f"w{i}" for i in range(300, 306)]
    rng = random.Random(5)
    model = BigramModel.fit([" ".join(rng.choices(words, k=5)) for _ in range(30)], alpha=0.01, vocab=vocab)
    fsm = compile_fsm([ConstraintGroup("a", (("w301",),))], 1, vocab)
    result = decode(model, fsm, DecodeConfig(beam_width=4, max_len=6, finalists=True))
    objects: dict[int, set[int]] = {}
    for hyps in result.per_state_finalists.values():
        for hyp in hyps:
            for t in hyp.tokens:
                objects.setdefault(t, set()).add(id(t))
    assert sum(len(hyps) for hyps in result.per_state_finalists.values()) > 4
    assert max(objects) > 256
    assert all(len(ids) == 1 for ids in objects.values()), objects


def test_finalists_keep_token_ids_past_int16():
    # V > 2**15: the finalists' token matrix cannot be int16
    vocab = Vocabulary([f"w{i}" for i in range(2**15 + 8)])
    big = [f"w{i}" for i in range(2**15, 2**15 + 4)]
    model = BigramModel.fit([" ".join(big), " ".join(big[::-1])], alpha=0.01, vocab=vocab)
    fsm = compile_fsm([ConstraintGroup("a", ((big[2],),))], 1, vocab)
    result = decode(model, fsm, DecodeConfig(beam_width=3, max_len=5, finalists=True))
    assert min(result.tokens[:-1]) >= vocab.id(big[0]) > 2**15
    assert fsm.table.dtype == np.int16  # 2 states
    assert result.per_state_finalists._arrays[0].dtype == np.int32
    for state, hyps in result.per_state_finalists.items():
        for hyp in hyps:
            assert all(type(t) is int for t in hyp.tokens)
            assert fsm.run(hyp.tokens) == state
            assert hyp.logprob == pytest.approx(sequence_logprob(model, hyp.tokens[:-1]), abs=1e-9)


def test_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(beam_width=0)
    with pytest.raises(ValueError):
        DecodeConfig(max_len=0)


@pytest.mark.parametrize(
    "field, value", [("beam_width", 2.5), ("beam_width", "3"), ("beam_width", True), ("max_len", 3.0), ("max_len", False)]
)
def test_config_refuses_counts_that_are_not_ints(field, value):
    with pytest.raises(MalformedConfigError, match=f"{field} must be an int, got {re.escape(repr(value))}") as info:
        DecodeConfig(**{field: value})
    assert isinstance(info.value, LexbeamError) and isinstance(info.value, TypeError)


@pytest.mark.parametrize("field", ["min_satisfied_fallback", "length_normalize", "finalists"])
@pytest.mark.parametrize("value", ["off", "no", 0, 1, None])
def test_config_refuses_flags_that_are_not_bools(field, value):
    with pytest.raises(MalformedConfigError, match=f"{field} must be a bool, got {re.escape(repr(value))}") as info:
        DecodeConfig(**{field: value})
    assert isinstance(info.value, LexbeamError) and isinstance(info.value, TypeError)


def test_decode_at_working_scale_stays_fast():
    import time

    rng = random.Random(0)
    vocab = Vocabulary([f"w{i}" for i in range(2_000)])
    counts = {
        (rng.randrange(len(vocab)), rng.randrange(2, len(vocab))): rng.randrange(1, 9)
        for _ in range(30_000)
    }
    model = BigramModel(vocab, counts, alpha=0.1)
    groups = [
        ConstraintGroup("a", (("w10",), ("w11", "w12"))),
        ConstraintGroup("b", (("w20",),)),
        ConstraintGroup("c", (("w30", "w31"),)),
    ]
    fsm = compile_fsm(groups, 2, vocab)
    started = time.monotonic()
    result = decode(model, fsm, DecodeConfig(beam_width=10, max_len=16))
    assert time.monotonic() - started < 5.0
    assert result.satisfied_count >= 2


def test_decode_memory_is_bounded_on_all_tied_contexts():
    import tracemalloc

    # every context has at most three observed successors, so under
    # Laplace smoothing the rest of the vocabulary ties at its cut
    vocab = Vocabulary([f"w{i}" for i in range(20_000)])
    size = len(vocab)
    corpus = [f"w{i} w{(7 * i + 3) % size} w{(11 * i + 5) % size}" for i in range(0, 300, 3)]
    model = BigramModel.fit(corpus, alpha=0.5, vocab=vocab)
    groups = [ConstraintGroup("a", (("w10",),)), ConstraintGroup("b", (("w20", "w21"),))]
    fsm = compile_fsm(groups, 2, vocab)
    cfg = DecodeConfig(beam_width=5, max_len=8)
    rows = fsm.state_count * cfg.beam_width  # live hypotheses per step, at most
    tracemalloc.start()
    try:
        result = decode(model, fsm, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # O(V + rows * beam_width): a few length-V rows while one context is
    # scored, never a candidate per (row, vocabulary token)
    assert peak < 160 * size + 1024 * rows * cfg.beam_width
    assert result.satisfied_count == 2


def test_kept_result_retains_narrow_finalist_arrays():
    import gc
    import tracemalloc

    # six groups, quota 5, V = 1000: a result kept unread holds its
    # finalists' token matrix as int16, one logprob and one state each
    rng = random.Random(7)
    vocab = Vocabulary([f"w{i}" for i in range(998)])
    size = len(vocab)
    counts = {(rng.randrange(size), rng.randrange(2, size)): rng.randrange(1, 9) for _ in range(20_000)}
    model = BigramModel(vocab, counts, alpha=0.1)
    words = [f"w{i}" for i in range(2, 40)]
    groups = [
        ConstraintGroup(f"g{g}", tuple(tuple(rng.sample(words, rng.randint(1, 3))) for _ in range(2)))
        for g in range(6)
    ]
    fsm = compile_fsm(groups, 5, vocab)
    cfg = DecodeConfig(beam_width=5, max_len=20, finalists=True)
    assert size == 1000 and fsm.state_count > 300
    decode(model, fsm, cfg)  # anything built once per model or machine is built now
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = decode(model, fsm, cfg)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    hyps = [hyp for hyps in result.per_state_finalists.values() for hyp in hyps]
    longest = max(len(hyp.tokens) for hyp in hyps)
    # 2 bytes per token slot, at most 8 each for the logprob and the state
    assert retained <= len(hyps) * (2 * longest + 16) + 4096, (retained, len(hyps), longest)
    assert len(hyps) > 200 and result.satisfied_count == 5


def test_sentinel_tokens_may_appear_in_constraints():
    # legal but unusual: the end sentinel is routed through the
    # transition table like any token, so a group keyed on it is
    # satisfied exactly when a hypothesis finishes
    vocab = Vocabulary(["a", "b"])
    model = BigramModel.fit(["a b", "b a"], vocab=vocab)
    from lexbeam import EOS

    fsm = compile_fsm([ConstraintGroup("end", ((EOS,),))], 1, vocab)
    assert fsm.satisfied_count(fsm.step(0, vocab.eos_id)) == 1
    result = decode(model, fsm, DecodeConfig(beam_width=4, max_len=3))
    assert result.satisfied_count == 1
    assert result.tokens[-1] == vocab.eos_id


def test_decode_with_empty_content_vocabulary():
    vocab = Vocabulary([])
    model = BigramModel.fit([[]], vocab=vocab)
    result = decode_unconstrained(model, beam_width=2, max_len=2)
    assert vocab.strip_sentinels(result.tokens) == ()


def test_concurrent_decodes_share_one_fsm_and_scorer():
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(61)
    vocab = Vocabulary(["a", "b", "c"])
    model = random_bigram(rng, vocab)
    groups = random_groups(rng, vocab, max_groups=2, max_phrase_len=2)
    fsm = compile_fsm(groups, 1, vocab)
    cfg = DecodeConfig(beam_width=4, max_len=5)
    reference = decode(model, fsm, cfg)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: decode(model, fsm, cfg), range(32)))
    assert all(r == reference for r in results)
    # compiled tables are immutable
    with pytest.raises(ValueError):
        fsm.table[0, 0] = 1


def test_finalists_read_as_one_mapping_built_once():
    rng = random.Random(23)
    vocab = Vocabulary([f"w{i}" for i in range(6)])
    model = random_bigram(rng, vocab)
    fsm = compile_fsm(random_groups(rng, vocab, max_groups=2, max_phrase_len=2), 1, vocab)
    result = decode(model, fsm, DecodeConfig(beam_width=3, max_len=5, finalists=True))
    finalists = result.per_state_finalists
    built = dict(finalists)
    assert len(built) > 1 and list(built) == sorted(built)
    assert all(finalists[s] is hyps for s, hyps in built.items())
    assert repr(finalists) == repr(built)
    # equal to a result holding a plain dict, both ways round
    plain = DecodeResult(result.tokens, result.logprob, result.satisfied_count, built)
    assert plain == result and result == plain
    assert hash(plain) == hash(result)
    with pytest.raises(TypeError):
        finalists[0] = ()


def test_results_keep_no_finalists_unless_asked():
    # the default config's results share one empty read-only mapping
    rng = random.Random(23)
    vocab = Vocabulary([f"w{i}" for i in range(6)])
    model = random_bigram(rng, vocab)
    fsm = compile_fsm(random_groups(rng, vocab, max_groups=2, max_phrase_len=2), 1, vocab)
    cfg = DecodeConfig(beam_width=3, max_len=5)
    first, second = decode(model, fsm, cfg), decode_unconstrained(model, 3, 5)
    assert first.per_state_finalists == {} and first.per_state_finalists is second.per_state_finalists
    with pytest.raises(TypeError):
        first.per_state_finalists[0] = ()
    assert winner(first) == winner(decode(model, fsm, dataclasses.replace(cfg, finalists=True)))
    with pytest.raises(MalformedConfigError, match="finalists must be a bool"):
        DecodeConfig(finalists="yes")


def test_decode_needs_no_numpy_2_function(monkeypatch):
    # numpy 1.24, the oldest the package admits, has no bitwise_count
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    rng = random.Random(31)
    vocab = Vocabulary([f"w{i}" for i in range(6)])
    model = random_bigram(rng, vocab)
    fsm = compile_fsm(random_groups(rng, vocab, max_groups=3, max_phrase_len=2), 1, vocab)
    for finalists in (False, True):
        cfg = DecodeConfig(beam_width=3, max_len=5, finalists=finalists)
        assert winner(decode(model, fsm, cfg)) == winner(reference_decode(model, fsm, cfg))
    assert decode_unconstrained(model, 3, 5).satisfied_count == 0
