import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from lexbeam import BigramModel, Vocabulary
from lexbeam.errors import (
    EmptyCorpusError,
    MalformedModelError,
    NegativeBigramCountError,
    NonPositiveAlphaError,
    UnknownTokenError,
)

from helpers import reference_model_json, write_model


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
    assert m1.to_json()["counts"] == m2.to_json()["counts"]
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


def test_fit_without_a_vocabulary_uses_the_sorted_corpus_words():
    model = BigramModel.fit(["the dog", ["a", "dog"]])
    assert model.vocab == Vocabulary(["a", "dog", "the"])
    a, dog, the = model.vocab.ids(["a", "dog", "the"])
    bos, eos = model.vocab.bos_id, model.vocab.eos_id
    assert model.to_json()["counts"] == [[bos, a, 1], [bos, the, 1], [a, dog, 1], [dog, eos, 2], [the, dog, 1]]


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
        # an id past int64 is refused while reading, before any pair is checked
        ({(0, 2**70): 1}, MalformedModelError, "model counts must be a list of [v, w, c] integer triples"),
        ({(2, 3): -1, (2**64, 1): 1}, MalformedModelError, "model counts must be a list of [v, w, c] integer triples"),
    ],
)
def test_bad_count_pairs_report_the_first_in_input_order(vocab, counts, error, message):
    with pytest.raises(error) as info:
        BigramModel(vocab, counts, 1.0)
    assert message in str(info.value)


@pytest.mark.parametrize("key", ["02", 2, (0, 2, 5)])
def test_count_keys_must_be_pairs(vocab, key):
    # only a (v, w) tuple is a pair: "02" is not (0, 2)
    with pytest.raises(TypeError):
        BigramModel(vocab, {key: 1}, 1.0)


def test_json_roundtrip(tmp_path, vocab):
    model = BigramModel.fit(["a b", "b a"], alpha=0.5, vocab=vocab)
    path = tmp_path / "model.json"
    write_model(model, path)
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


@pytest.mark.parametrize(
    "triple", [[2, 3, 2**63], [2, 3, 2**64 + 1], [2, 2**63, 1], [-(2**63) - 1, 3, 1], [2, 3, 1e19]]
)
def test_counts_and_ids_past_int64_are_refused(tmp_path, triple):
    # a count past int64 was kept exact and an id past it was out of range
    vocab = Vocabulary(["a", "b"])
    v, w, c = triple
    with pytest.raises(MalformedModelError, match="integer triples"):
        BigramModel(vocab, {(0, 2): 1, (v, w): c}, 1.0)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"alpha": 1.0, "vocab": ["a", "b"], "counts": [[0, 2, 1], triple]}))
    with pytest.raises(MalformedModelError, match="integer triples"):
        BigramModel.load(str(path))
    # the int64 bounds themselves are counts and ids like any other
    model = BigramModel(vocab, {(2, 3): 2**63 - 1}, 1.0)
    assert model.to_json()["counts"] == [[2, 3, 2**63 - 1]]
    with pytest.raises(UnknownTokenError):
        BigramModel(vocab, {(-(2**63), 3): 1}, 1.0)


def test_counts_are_derived_nonzero_and_read_only(vocab):
    a, b = vocab.id("a"), vocab.id("b")
    model = BigramModel(vocab, {(b, a): 2, (a, b): 0, (a, a): 1}, 1.0)
    assert model.to_json()["counts"] == [[a, a, 1], [b, a, 2]]
    model.to_json()["counts"].append([a, b, 7])  # a new list on each call
    assert model.to_json()["counts"] == [[a, a, 1], [b, a, 2]]


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
    assert model.to_json()["counts"] == [[v, w, c] for (v, w), c in sorted(counts.items())]


def _random_model_json(rng: random.Random) -> tuple[dict, set[str]]:
    """A model file's JSON with duplicate and zero triples, entries that
    ``int()`` reads (floats, numeric strings, bools), and at times ids
    or counts past int64 (both refused), out-of-range ids, negative
    counts (some overwritten by a later duplicate) or an entry ``int()``
    refuses. Returns it with the names of the features it holds."""
    size = rng.randint(2, 9)
    pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(rng.randint(1, 8))]
    triples = [[*rng.choice(pairs), rng.choice([0, 0, 1, 2, 5, 40])] for _ in range(rng.randint(0, 24))]
    features = set()
    if len({tuple(t[:2]) for t in triples}) < len(triples):
        features.add("duplicate")
    for triple in triples:
        for j, value in enumerate(triple):
            r = rng.random()
            if r < 0.04:
                triple[j] = value + rng.choice([0.0, 0.25, 0.75])  # truncated, as int() does
                features.add("float")
            elif r < 0.08:
                triple[j] = rng.choice(["{}", " {} ", "+{}"]).format(value)
                features.add("string")
            elif r < 0.12 and value in (0, 1):
                triple[j] = bool(value)
                features.add("bool")
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        v, w = rng.choice(pairs)
        at = rng.randint(0, len(triples))
        kind = rng.choice(["range", "past int64", "negative", "refused"])
        if kind == "range":
            triple = rng.choice([[size + rng.randrange(3), w, 1], [v, -1 - rng.randrange(3), 2]])
        elif kind == "past int64":
            big = rng.choice([2**63, 2**63 + 7, 2**64, -(2**63) - 1, 1e19])
            triple = rng.choice([[big, w, 1], [v, big, 1], [v, w, abs(big)]])
            kind = "count past int64" if triple[2] == abs(big) else "id past int64"
        elif kind == "negative":
            triple = [v, w, -rng.randint(1, 3)]
            if rng.random() < 0.5:
                triples.insert(at, triple)
                triple, at, kind = [v, w, rng.randrange(3)], rng.randint(at + 1, len(triples)), "overwritten negative"
        else:
            triple = [v, w, rng.choice([None, "2.5", float("nan"), float("inf"), [1]])]
            rng.shuffle(triple)
            triple = rng.choice([triple, [v, w]])
        triples.insert(at, triple)
        features.add(kind)
    alpha = rng.choice([1e-3, 0.1, 0.5, 1, 2.0])
    return {"alpha": alpha, "vocab": [f"w{i}" for i in range(size - 2)], "counts": triples}, features


def test_from_json_matches_the_per_triple_reference():
    rng = random.Random(11)
    valid, errors = Counter(), Counter()
    for _ in range(1500):
        obj, features = _random_model_json(rng)
        try:
            rows, saved = reference_model_json(obj)
        except (MalformedModelError, UnknownTokenError, ValueError) as expected:
            with pytest.raises(type(expected)) as info:
                BigramModel.from_json(obj)
            assert type(info.value) is type(expected)
            if not isinstance(expected, MalformedModelError):  # its message names the numpy error
                assert str(info.value) == str(expected)
            errors[type(expected).__name__] += 1
            continue
        model = BigramModel.from_json(obj)
        assert [model.next_logprobs([v]).tobytes() for v in range(len(model.vocab))] == rows
        assert json.dumps(model.to_json(), sort_keys=True) == saved
        valid.update(features)
    for feature in ("duplicate", "float", "string", "bool", "overwritten negative"):
        assert valid[feature] >= 20, (feature, valid)
    for error in ("MalformedModelError", "UnknownTokenError", "NegativeBigramCountError"):
        assert errors[error] >= 30, errors


def test_from_json_memory_holds_no_per_triple_objects():
    import tracemalloc

    rng = random.Random(3)
    size = 5000
    triples = [[rng.randrange(size), rng.randrange(1, size), rng.randrange(1, 50)] for _ in range(70_000)]
    obj = {"alpha": 0.5, "vocab": [f"w{i}" for i in range(size - 2)], "counts": triples}
    tracemalloc.start()
    try:
        model = BigramModel.from_json(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the triples as int64 take 24 bytes each; a {(v, w): c} dict of
    # tuples on the way peaks at about 180 bytes per triple
    assert peak < 144 * len(triples)
    assert len(model.to_json()["counts"]) == len({(v, w) for v, w, _ in triples})


@pytest.mark.parametrize(
    "counts",
    [
        # 2**62 * 4 and -(2**63) * 4 wrap to 0 in int64: keyed, they would
        # land on the in-range pair (0, 2) and overwrite its count
        [[0, 2, -1], [2**62, 2, 1]],
        [[0, 2, -1], [-(2**63), 2, 1], [2, 3, 1]],
        [[2, 3, 1], [-(2**62), 3, 1], [0, 2, -1]],
        [[0, 2, -1], [2**63 - 1, 1, 1], [2, 2, 1]],
        [[2, 2, 1], [3, 2**62, 4], [3, 3, -1]],
        [[2, 3, -1], [2**62, 2, 5], [3, 3, -2]],
        [[2, 3, -1], [2, 3, 1], [2, -(2**63), 1], [3, 3, -1]],
        [[1, 1, 2], [2**63 - 1, 2**63 - 1, 1], [-(2**63), -(2**63), 1]],
        # a pair's first triple orders it, also for a counted <s> pair
        [[3, 2, -1], [2, 0, -1]],
    ],
)
def test_far_out_of_range_ids_report_the_first_bad_pair(monkeypatch, counts):
    obj = {"alpha": 1.0, "vocab": ["a", "b"], "counts": counts}
    size = len(obj["vocab"]) + 2
    keys = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda a, *args, **kw: keys.append(np.array(a)) or argsort(a, *args, **kw))
    with pytest.raises((UnknownTokenError, NegativeBigramCountError)) as expected:
        reference_model_json(obj)
    with pytest.raises(expected.type) as info:
        BigramModel.from_json(obj)
    assert type(info.value) is expected.type and str(info.value) == str(expected.value)
    # no key is formed from an id outside the vocabulary, so none wraps:
    # one per row's <s> entry and one per in-range triple, all below V * V
    known = sum(0 <= v < size and 0 <= w < size for v, w, _ in counts)
    assert keys and all(len(k) == size + known and ((k >= 0) & (k < size * size)).all() for k in keys)


def test_triple_order_changes_only_which_repeat_is_last():
    rng = random.Random(5)
    size = 40
    pairs = list({(rng.randrange(size), rng.randrange(size)) for _ in range(300)})
    distinct = sorted([v, w, rng.randrange(1, 9)] for v, w in pairs)
    repeated = sorted(distinct + [[v, w, rng.randrange(0, 9)] for v, w, _ in rng.sample(distinct, 60)])
    vocab = [f"w{i}" for i in range(size - 2)]

    def loaded(triples):
        model = BigramModel.from_json({"alpha": 0.5, "vocab": vocab, "counts": triples})
        return [model.next_logprobs([v]).tobytes() for v in range(size)], json.dumps(model.to_json(), sort_keys=True)

    for triples in (distinct, repeated):
        shuffled = list(triples)
        rng.shuffle(shuffled)
        # reversed pair by pair, the repeats of a pair kept in file order
        backwards = sorted(triples, key=lambda t: t[:2], reverse=True)
        for order in (triples, triples[::-1], shuffled, backwards):
            assert loaded(order) == reference_model_json({"alpha": 0.5, "vocab": vocab, "counts": order})
        assert loaded(backwards) == loaded(triples)
        # without repeats any order loads the sorted file's model; with
        # them, read backwards, a pair's first triple wins
        assert (loaded(triples[::-1]) == loaded(triples)) is (triples is distinct)


@pytest.mark.parametrize(
    "counts, where",
    [
        ([[0, 2, 1], {"v": 0, "w": 2, "c": 1}], "triple 1 ({'v': 0, 'w': 2, 'c': 1}) is not 3 entries"),
        (["021"], "triple 0 ('021') is not 3 entries"),
        ([[0, 2, 1], [0, 3, 1], [0, 2, "2.5"], [0, 3, None]], "triple 2 ([0, 2, '2.5']): invalid literal"),
        ([[0, 2, 1], [0, 2, [1, 2]]], "triple 1 ([0, 2, [1, 2]]): int() argument must be"),
        ([[0, 2, "x"], [0, 2]], "triple 0 ([0, 2, 'x'])"),
        ([[0, 2, 1], [0, 2, 2**64]], "triple 1 ([0, 2, 18446744073709551616])"),
        ({"0": [2, 1]}, "got dict"),
    ],
)
def test_malformed_counts_name_the_first_bad_triple(counts, where):
    with pytest.raises(MalformedModelError) as info:
        BigramModel.from_json({"alpha": 1.0, "vocab": ["a"], "counts": counts})
    assert str(info.value).startswith("model counts must be a list of [v, w, c] integer triples: " + where)


@pytest.mark.parametrize(
    "obj",
    [
        [1, 2],
        {"alpha": 1.0, "vocab": ["a"]},
        {"vocab": ["a"], "counts": []},
        {"alpha": 1.0, "counts": []},
        {"alpha": 1.0, "vocab": ["a"], "counts": 5},
        {"alpha": 1.0, "vocab": ["a"], "counts": {"0": [2, 1]}},
        {"alpha": 1.0, "vocab": ["a"], "counts": [[0, 2]]},
        {"alpha": 1.0, "vocab": ["a"], "counts": [[0, 2, 1, 1]]},
        {"alpha": 1.0, "vocab": ["a"], "counts": [[0, 2, 1], [0, 2]]},
        {"alpha": 1.0, "vocab": ["a"], "counts": [[]]},
        {"alpha": 1.0, "vocab": ["a"], "counts": ["021"]},
        {"alpha": 1.0, "vocab": ["a"], "counts": [[0, 2, None]]},
        {"alpha": 1.0, "vocab": ["a"], "counts": [[0, 2, "2.5"]]},
        {"alpha": 1.0, "vocab": ["a"], "counts": [[0, 2, [1]]]},
        {"alpha": 1.0, "vocab": ["a"], "counts": [[0, 2, float("nan")]]},
        {"alpha": 1.0, "vocab": ["a"], "counts": [[0, 2, float("inf")]]},
        {"alpha": 1.0, "vocab": ["a"], "counts": [[0, 2, 2**64], [0, 2, None]]},
        {"alpha": None, "vocab": ["a"], "counts": []},
        {"alpha": "one", "vocab": ["a"], "counts": []},
        {"alpha": 1.0, "vocab": "ab", "counts": []},
        {"alpha": 1.0, "vocab": [1], "counts": []},
    ],
)
def test_malformed_model_files_raise_a_typed_error(obj):
    with pytest.raises(MalformedModelError):
        BigramModel.from_json(obj)


def test_sparse_rows_densify_to_the_dense_rows():
    # the start sentinel is listed at -inf in every row, counted or not,
    # and an unlisted id scores the row default
    rng = random.Random(17)
    for _ in range(40):
        vocab = Vocabulary([f"w{i}" for i in range(rng.randint(0, 7))])
        size = len(vocab)
        counts = {(rng.randrange(size), rng.randrange(size)): rng.randrange(0, 4) for _ in range(rng.randint(0, 30))}
        model = BigramModel(vocab, counts, rng.choice([1e-3, 0.5, 2.0]))
        for prefix in [()] + [(v,) for v in range(size)]:
            default, ids, values = model.sparse_logprobs(prefix)
            assert ids.tolist() == sorted(set(ids.tolist()))
            assert vocab.bos_id in ids.tolist() and values[ids.tolist().index(vocab.bos_id)] == -np.inf
            row = np.full(size, default)
            row[ids] = values
            assert row.tobytes() == model.next_logprobs(prefix).tobytes()
            with pytest.raises(ValueError):
                ids[0] = 1
            with pytest.raises(ValueError):
                values[0] = 0.0
        assert model.to_json()["counts"] == [[v, w, c] for (v, w), c in sorted(counts.items()) if c]
