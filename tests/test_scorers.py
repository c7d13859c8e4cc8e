import math
import random

import numpy as np
import pytest

from lexbeam import BigramModel, TableScorer, Vocabulary
from lexbeam.errors import (
    EmptyCorpusError,
    NonPositiveAlphaError,
    UnknownTokenError,
)
from lexbeam.scorers import assert_normalized


@pytest.fixture
def vocab():
    return Vocabulary(["a", "b"])


def test_smoothed_probability_by_hand(vocab):
    # one sentence "a b", alpha 1, three predictable tokens (a, b, end)
    model = BigramModel.fit(["a b"], alpha=1.0, vocab=vocab)
    a, b = vocab.id("a"), vocab.id("b")
    assert math.exp(model.next_logprobs([a])[b]) == pytest.approx(0.5)
    assert math.exp(model.next_logprobs([a])[a]) == pytest.approx(0.25)
    assert math.exp(model.next_logprobs([a])[vocab.eos_id]) == pytest.approx(0.25)


def test_rows_equal_the_closed_form_bit_for_bit():
    rng = random.Random(5)
    vocab = Vocabulary([f"w{i}" for i in range(6)])
    size, bos = len(vocab), vocab.bos_id
    counts = {(v, w): rng.randrange(0, 4) for v in range(size) for w in range(size)}
    alpha = 0.3
    model = BigramModel(vocab, counts, alpha)
    for v in range(size):
        total = sum(counts[v, w] for w in range(size) if w != bos)
        expected = [
            -np.inf if w == bos
            else np.log(np.float64(counts[v, w]) + alpha) - np.log(total + alpha * (size - 1))
            for w in range(size)
        ]
        assert model.next_logprobs([v]).tobytes() == np.array(expected).tobytes()


def test_unseen_context_is_uniform(vocab):
    model = BigramModel.fit(["a b"], alpha=1.0, vocab=vocab)
    row = model.next_logprobs([vocab.id("b")])  # "b" only ever precedes EOS
    # context count 1 -> not uniform; use a context with zero outgoing counts
    model2 = BigramModel(vocab, {}, alpha=1.0)
    row = model2.next_logprobs([vocab.id("b")])
    n_predictable = len(vocab) - 1
    for tok in range(len(vocab)):
        expected = 0.0 if tok == vocab.bos_id else 1.0 / n_predictable
        assert math.exp(row[tok]) == pytest.approx(expected)


def test_fit_is_invariant_to_sentence_order(vocab):
    m1 = BigramModel.fit(["a b", "b a a"], vocab=vocab)
    m2 = BigramModel.fit(["b a a", "a b"], vocab=vocab)
    assert m1.counts == m2.counts
    for ctx in range(len(vocab)):
        assert np.array_equal(m1.next_logprobs([ctx]), m2.next_logprobs([ctx]))


def test_every_row_is_normalized():
    rng = random.Random(5)
    for _ in range(10):
        vocab = Vocabulary([f"w{i}" for i in range(rng.randint(1, 6))])
        counts = {
            (v, w): rng.randrange(0, 7)
            for v in range(len(vocab))
            for w in range(len(vocab))
            if w != vocab.bos_id
        }
        model = BigramModel(vocab, counts, alpha=rng.choice([0.25, 1.0, 3.0]))
        for ctx in range(len(vocab)):
            total = np.logaddexp.reduce(model.next_logprobs([ctx]))
            assert abs(total) < 1e-9


def test_empty_prefix_conditions_on_start_sentinel(vocab):
    model = BigramModel.fit(["a b"], vocab=vocab)
    assert np.array_equal(model.next_logprobs([]), model.next_logprobs([vocab.bos_id]))
    # the start of "a b" was counted once
    assert math.exp(model.next_logprobs([])[vocab.id("a")]) == pytest.approx(2 / 4)


def test_purity_and_markov_property(vocab):
    model = BigramModel.fit(["a b", "b b a"], vocab=vocab)
    a, b = vocab.id("a"), vocab.id("b")
    first = model.next_logprobs([a, b])
    second = model.next_logprobs([a, b])
    assert np.array_equal(first, second)
    assert np.array_equal(model.next_logprobs([a, a, b]), model.next_logprobs([b, b]))


def test_rows_are_read_only(vocab):
    model = BigramModel.fit(["a b"], vocab=vocab)
    row = model.next_logprobs([])
    with pytest.raises(ValueError):
        row[0] = 0.0


def test_fit_errors(vocab):
    with pytest.raises(EmptyCorpusError):
        BigramModel.fit([])
    with pytest.raises(NonPositiveAlphaError):
        BigramModel.fit(["a"], alpha=0.0, vocab=vocab)
    with pytest.raises(NonPositiveAlphaError):
        BigramModel.fit(["a"], alpha=-1.0, vocab=vocab)
    with pytest.raises(UnknownTokenError):
        BigramModel.fit(["zebra"], vocab=vocab)
    with pytest.raises(UnknownTokenError):
        BigramModel.fit(["a"], vocab=vocab).next_logprobs([42])


@pytest.mark.parametrize(
    "counts, error, message",
    [
        ({(0, 2): 1, (4, 2): 1, (2, 2): -1}, UnknownTokenError, "count pair (4, 2) out of range"),
        ({(2, -1): 1}, UnknownTokenError, "count pair (2, -1) out of range"),
        ({(0, 2**70): 1}, UnknownTokenError, f"count pair (0, {2**70}) out of range"),
        ({(2, 3): -1, (2**64, 1): 1}, ValueError, "negative count for pair (2, 3)"),
    ],
)
def test_bad_count_pairs_report_the_first_in_input_order(vocab, counts, error, message):
    with pytest.raises(error) as info:
        BigramModel(vocab, counts, 1.0)
    assert message in str(info.value)


def test_json_roundtrip(tmp_path, vocab):
    model = BigramModel.fit(["a b", "b a"], alpha=0.5, vocab=vocab)
    path = tmp_path / "model.json"
    model.save(str(path))
    loaded = BigramModel.load(str(path))
    assert loaded.vocab == model.vocab
    assert loaded.alpha == model.alpha
    for ctx in range(len(vocab)):
        assert np.array_equal(loaded.next_logprobs([ctx]), model.next_logprobs([ctx]))


def test_duplicate_model_triples_last_one_wins(vocab):
    a, b = vocab.id("a"), vocab.id("b")
    triples = [[a, b, 1], [b, a, 2], [a, b, 5], [b, a, 0], [a, a, 0], [a, a, 3]]
    model = BigramModel.from_json({"alpha": 0.5, "vocab": ["a", "b"], "counts": triples})
    assert model.to_json()["counts"] == [[a, a, 3], [a, b, 5]]
    expected = BigramModel(vocab, {(a, a): 3, (a, b): 5}, 0.5)
    for ctx in range(len(vocab)):
        assert model.next_logprobs([ctx]).tobytes() == expected.next_logprobs([ctx]).tobytes()


def test_counts_are_derived_nonzero_and_read_only(vocab):
    a, b = vocab.id("a"), vocab.id("b")
    model = BigramModel(vocab, {(b, a): 2, (a, b): 0, (a, a): 1}, 1.0)
    assert list(model.counts.items()) == [((a, a), 1), ((b, a), 2)]
    model.counts[(a, b)] = 7  # a new dict on each read
    assert model.counts == {(a, a): 1, (b, a): 2}
    with pytest.raises(AttributeError):
        model.counts = {}


def test_model_memory_is_linear_in_vocabulary_and_pairs():
    import tracemalloc

    rng = random.Random(3)
    vocab = Vocabulary([f"w{i}" for i in range(3998)])  # V = 4000
    size = len(vocab)
    counts = {(rng.randrange(size), rng.randrange(1, size)): rng.randrange(1, 50) for _ in range(10_000)}
    tracemalloc.start()
    try:
        model = BigramModel(vocab, counts, 0.5)
        row = model.next_logprobs([vocab.id("w7")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense V x V float64 table would take 128 MB
    assert peak < 256 * (size + len(counts))
    assert row.shape == (size,)
    assert model.counts == {k: c for k, c in sorted(counts.items())}


def test_table_scorer_lookup_and_default(vocab):
    uniform = np.log(np.full(len(vocab), 1 / len(vocab)))
    eos_only = np.full(len(vocab), -np.inf)
    eos_only[vocab.eos_id] = 0.0
    scorer = TableScorer(vocab, {(): eos_only}, default=uniform)
    assert scorer.next_logprobs([])[vocab.eos_id] == 0.0
    assert np.array_equal(scorer.next_logprobs([2]), uniform)
    strict = TableScorer(vocab, {(): eos_only})
    with pytest.raises(KeyError):
        strict.next_logprobs([2])


def test_table_scorer_validates_rows(vocab):
    with pytest.raises(ValueError):
        TableScorer(vocab, {(): np.zeros(len(vocab))})  # sums to len(vocab)
    with pytest.raises(ValueError):
        TableScorer(vocab, {(): np.log(np.full(3, 1 / 3))})  # wrong length


def test_assert_normalized_tolerance():
    assert_normalized(np.log(np.full(4, 0.25)))
    with pytest.raises(ValueError):
        assert_normalized(np.log(np.full(4, 0.3)))
