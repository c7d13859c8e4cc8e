import dataclasses
import gc
import math
import os
import random
import re
import string
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from lexbeam import (
    Domain,
    DomainSpec,
    ImageRecord,
    Rotation,
    SampleStep,
    class_entropy,
    classify_domain,
    exclude,
    ngram_stats,
    sample,
    sampling,
    tokenize,
)
from lexbeam.errors import (
    AllClassesIgnoredError,
    EmptyPoolsError,
    LexbeamError,
    MalformedConfigError,
    MalformedImageError,
    MissingFieldError,
    NonPositiveCountError,
    OverlappingDomainsError,
    TargetTooSmallError,
    UnknownRotationError,
    UnpooledImageError,
)

from helpers import reference_entropy, reference_sample


def img(image_id, classes, rotation=Rotation.ZERO):
    return ImageRecord(image_id=image_id, classes=frozenset(classes), rotation=rotation)


CLASS_POOL = ["person", "car", "dog", "tree", "boat", "bird", "chair", "lamp"]


def fixture_images(count, seed):
    rng = random.Random(seed)
    images = []
    for i in range(count):
        size = rng.randint(2, 6)
        classes = rng.sample(CLASS_POOL, size)
        images.append(img(f"img{i:03d}", classes))
    return images


# ---------------------------------------------------------------- exclusion


def test_exclusion_rules():
    images = [
        img("rotated", ["a", "b"], Rotation.NONZERO),
        img("mystery", ["a", "b"], Rotation.UNKNOWN),
        img("solo", ["dog"]),
        img("empty", []),
        img("plain", ["a", "b"]),
        img("busy", [f"c{i}" for i in range(7)]),
    ]
    eligible, auto = exclude(images)
    assert [i.image_id for i in eligible] == ["plain"]
    assert [i.image_id for i in auto] == ["busy"]


# ----------------------------------------------------------------- entropy


def test_entropy_of_empty_and_uniform_counts():
    assert class_entropy([]) == 0.0
    assert class_entropy([3, 3, 3]) == pytest.approx(math.log(3))
    assert class_entropy([5]) == 0.0


def test_candidate_adding_new_classes_wins():
    counted = img("seed", ["person", "car"])
    repeat = img("repeat", ["person", "car"])
    fresh = img("fresh", ["dog", "tree"])
    state = sample(
        eligible=[repeat, fresh],
        auto_include=[counted],
        target_count=2,
        n_candidates=2,
        seed=0,
    )
    # evening out the counts strictly increases entropy
    assert state.selected == ["seed", "fresh"]


# ------------------------------------------------------------------ sample


def test_target_equal_to_auto_include_returns_exactly_that():
    auto = [img("a", [f"c{i}" for i in range(8)]), img("b", [f"d{i}" for i in range(7)])]
    state = sample([], auto, target_count=2, n_candidates=3, seed=5)
    assert state.selected == ["a", "b"]
    assert state.trace == []


def test_target_too_small_and_empty_pools():
    auto = [img("a", [f"c{i}" for i in range(7)])]
    with pytest.raises(TargetTooSmallError):
        sample([], auto, target_count=0, n_candidates=1, seed=0)
    with pytest.raises(EmptyPoolsError):
        sample([], auto, target_count=2, n_candidates=1, seed=0)


@pytest.mark.parametrize(
    "field, value",
    [("target_count", 2.5), ("target_count", "3"), ("target_count", True),
     ("n_candidates", 2.5), ("n_candidates", True), ("n_candidates", None),
     # None would seed from the system, so the selection could not be replayed
     ("seed", None), ("seed", 1.5), ("seed", "x"), ("seed", True)],
)
def test_sample_refuses_counts_that_are_not_ints(field, value):
    eligible = [img(f"e{i}", ["a", f"b{i}"]) for i in range(4)]
    args = {"target_count": 3, "n_candidates": 2, "seed": 0, field: value}
    with pytest.raises(MalformedConfigError, match=f"{field} must be an int, got {re.escape(repr(value))}") as info:
        sample(eligible, [], **args)
    assert isinstance(info.value, LexbeamError) and isinstance(info.value, TypeError)


def test_pool_exhaustion_stops_early():
    eligible = [img("x", ["a", "b"]), img("y", ["b", "c"])]
    state = sample(eligible, [], target_count=10, n_candidates=3, seed=1)
    assert sorted(state.selected) == ["x", "y"]


def test_sample_is_deterministic_and_seed_sensitive():
    images = fixture_images(40, seed=11)
    eligible, auto = exclude(images)
    a = sample(eligible, auto, target_count=15, n_candidates=4, seed=99)
    b = sample(eligible, auto, target_count=15, n_candidates=4, seed=99)
    assert a.selected == b.selected
    assert a.trace == b.trace
    c = sample(eligible, auto, target_count=15, n_candidates=4, seed=100)
    assert a.selected != c.selected  # different draws with a different seed


def test_the_trace_reads_as_a_list_of_its_steps():
    eligible, auto = exclude(fixture_images(40, seed=11))
    state = sample(eligible, auto, target_count=len(auto) + 12, n_candidates=4, seed=99)
    steps = list(state.trace)
    assert len(state.trace) == len(steps) == 12
    assert all(isinstance(step, SampleStep) for step in steps)
    assert state.trace == steps and steps == state.trace
    assert state.trace == tuple(steps) and tuple(steps) == state.trace
    other = [*steps[:-1], dataclasses.replace(steps[-1], chosen="elsewhere")]
    for unequal in (steps[:-1], other, None):
        assert state.trace != unequal and unequal != state.trace
    for i in range(-len(steps), len(steps)):
        assert state.trace[i] == steps[i]
    for i in (len(steps), -len(steps) - 1):
        with pytest.raises(IndexError):
            state.trace[i]
    for cut in (slice(None), slice(2, 7), slice(-3, None), slice(None, None, -2), slice(20, 30)):
        assert state.trace[cut] == steps[cut]
    assert not hasattr(state.trace, "append")
    replaced = dataclasses.replace(state, trace=steps[:3])
    assert replaced.trace == steps[:3] and replaced.selected == state.selected

    empty = sample([], auto, target_count=len(auto), n_candidates=1, seed=0).trace
    assert empty == [] and [] == empty and len(empty) == 0 and list(empty) == []


def test_a_result_keeps_few_bytes_per_turn():
    # A trace keeps per turn one pointer per drawn id and a few bytes,
    # not a SampleStep and a tuple of ids (158 bytes a turn for the
    # whole result with both).
    rng = random.Random(96)
    classes = [f"c{i}" for i in range(600)]
    eligible = [img(f"i{n:05d}", rng.sample(classes, rng.randint(2, 6))) for n in range(20000)]
    gc.collect()
    tracemalloc.start()
    try:
        state = sample(eligible, [], target_count=3000, n_candidates=5, seed=0)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(state.trace) == 3000
    assert kept <= 96 * 3000


def test_class_counts_match_recount():
    images = fixture_images(30, seed=3)
    eligible, auto = exclude(images)
    state = sample(eligible, auto, target_count=12, n_candidates=3, seed=21)
    by_id = {i.image_id: i for i in images}
    recount: dict[str, int] = {}
    for image_id in state.selected:
        for c in by_id[image_id].classes:
            recount[c] = recount.get(c, 0) + 1
    assert state.class_counts == recount


HASH_SEED_SCRIPT = """
import random
from lexbeam import exclude, sample
from lexbeam.sampling import ImageRecord

rng = random.Random(3)
classes = [f"class{i}" for i in range(40)]
images = [ImageRecord(f"im{i:03d}", frozenset(rng.sample(classes, rng.randint(2, 9)))) for i in range(300)]
eligible, auto = exclude(images)
print(list(sample(eligible, auto, len(auto) + 60, 4, 7).class_counts.items()))
"""


def test_class_counts_order_does_not_follow_the_hash_seed():
    src = str(Path(sampling.__file__).resolve().parents[1])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].count("class") > 20


def replay_and_check_argmax(images, state):
    """Independent per-step oracle: recompute every drawn candidate's
    post-addition entropy with plain math and check the argmax rule."""
    by_id = {i.image_id: i for i in images}
    counts: dict[str, int] = {}
    replayed = []
    for image_id in state.selected[: len(state.selected) - len(state.trace)]:
        replayed.append(image_id)
        for c in by_id[image_id].classes:
            counts[c] = counts.get(c, 0) + 1

    def entropy_after(classes):
        merged = dict(counts)
        for c in classes:
            merged[c] = merged.get(c, 0) + 1
        total = sum(merged.values())
        # same canonical summation order as the library so identical
        # count multisets produce bit-identical floats
        return -sum(v / total * math.log(v / total) for v in sorted(merged.values()))

    for step in state.trace:
        scores = {cid: entropy_after(by_id[cid].classes) for cid in step.candidates}
        best = max(scores.values())
        assert scores[step.chosen] == best
        assert step.chosen == min(c for c, s in scores.items() if s == best)
        assert by_id[step.chosen] is not None
        assert len(by_id[step.chosen].classes) == step.pool
        replayed.append(step.chosen)
        for c in by_id[step.chosen].classes:
            counts[c] = counts.get(c, 0) + 1
    assert replayed == state.selected


def test_every_step_chooses_the_entropy_argmax():
    images = fixture_images(60, seed=8)
    eligible, auto = exclude(images)
    state = sample(eligible, auto, target_count=25, n_candidates=5, seed=17)
    replay_and_check_argmax(images, state)


def test_pools_cycle_in_ascending_class_count_order():
    images = fixture_images(60, seed=8)
    eligible, auto = exclude(images)
    state = sample(eligible, auto, target_count=20, n_candidates=5, seed=17)
    pools = [step.pool for step in state.trace]
    # Within each round-robin cycle, pool keys strictly increase.
    cycles = []
    cur = [pools[0]]
    for key in pools[1:]:
        if key <= cur[-1]:
            cycles.append(cur)
            cur = []
        cur.append(key)
    cycles.append(cur)
    for cycle in cycles:
        assert cycle == sorted(cycle)


def test_twenty_image_fixture_golden_selection():
    images = fixture_images(20, seed=2024)
    eligible, auto = exclude(images)
    state = sample(eligible, auto, target_count=8, n_candidates=5, seed=31337)
    replay_and_check_argmax(images, state)
    assert state.selected == GOLDEN_SELECTION


# frozen regression guard; the replay oracle above revalidates every step
GOLDEN_SELECTION = [
    "img005",
    "img004",
    "img014",
    "img001",
    "img011",
    "img017",
    "img009",
    "img013",
]


def tie_heavy_case(rng):
    """Few classes, so many candidates share count multisets; ids repeat
    now and then, so the draw index has to break ties too."""
    universe = [f"k{i}" for i in range(rng.randint(3, 9))]
    ids = [f"i{i:02d}" for i in range(rng.randint(5, 60))]
    if rng.random() < 0.25:
        ids = [rng.choice(ids[:6]) for _ in ids]
    images = [
        img(image_id, rng.sample(universe, rng.randint(1, len(universe))),
            rng.choice([Rotation.ZERO] * 6 + [Rotation.NONZERO]))
        for image_id in ids
    ]
    eligible, auto = exclude(images)
    target = rng.randint(len(auto), len(auto) + len(eligible) + 2) if eligible else len(auto)
    return eligible, auto, target, rng.randint(1, 6)


def auto_from_counts(counts):
    """Three auto-included images that give each class its count (1-3);
    six classes at count 3 give every image at least 7 classes."""
    counts = {**counts, **{f"t{i}": 3 for i in range(6)}}
    return [img(f"auto{k}", [c for c, n in counts.items() if n > k]) for k in range(3)]


def test_sample_matches_the_full_recount_reference():
    rng = random.Random(4500)
    for case in range(1200):
        eligible, auto, target, n_candidates = tie_heavy_case(rng)
        seed = rng.randrange(1 << 30)
        got = sample(eligible, auto, target, n_candidates, seed)
        want = reference_sample(eligible, auto, target, n_candidates, seed)
        assert got.selected == want.selected, case
        assert got.trace == want.trace, case
        assert got.class_counts == want.class_counts, case


def test_sample_matches_the_reference_on_near_ties(monkeypatch):
    # Small counts over few classes make different pre-counts with equal
    # true gains, such as (0, 2, 3) and (1, 1, 1), common enough that the
    # exact re-score runs; the counter checks that it does.
    rescored = []
    entropy_with = sampling._entropy_with
    monkeypatch.setattr(sampling, "_entropy_with", lambda *a: rescored.append(1) or entropy_with(*a))
    rng = random.Random(2018)
    for case in range(2000):
        universe = [f"k{i}" for i in range(rng.randint(8, 16))]
        auto = auto_from_counts({c: rng.randint(0, 3) for c in universe})
        size = rng.choice([3, 4])
        eligible = [img(f"e{i:02d}", rng.sample(universe, size)) for i in range(rng.randint(2, 10))]
        args = (eligible, auto, len(auto) + rng.randint(1, 4), rng.randint(2, 6), case)
        assert sample(*args).trace == reference_sample(*args).trace, case
    assert rescored


def test_gain_table_is_gain_bit_for_bit_and_covers_every_count(monkeypatch):
    tables = []
    choose = sampling._choose

    def spy(counts, gains, *rest):
        assert len(gains) > max(counts.values(), default=0)
        tables.append(gains)
        return choose(counts, gains, *rest)

    monkeypatch.setattr(sampling, "_choose", spy)
    eligible, auto = exclude(fixture_images(300, seed=5))
    state = sample(eligible, auto, target_count=200, n_candidates=4, seed=3)
    gains = tables[-1]
    assert all(table is gains for table in tables)  # one table per call, grown in place
    assert [g.hex() for g in gains] == [sampling._gain(n).hex() for n in range(len(gains))]
    assert max(state.class_counts.values()) > 100
    assert len(gains) <= len(state.selected) + 1


def test_gain_table_is_bounded_by_the_selection_not_the_target():
    eligible = [img(f"e{i}", ["a", f"b{i}"]) for i in range(10)]
    tracemalloc.start()
    try:
        state = sample(eligible, [], target_count=10**12, n_candidates=3, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(state.selected) == 10
    assert peak < 1 << 20


def exp_gain(pre_counts):
    """exp of the exact rise in sum(c ln c) when each count grows by one."""
    return math.prod(Fraction((n + 1) ** (n + 1), n**n) for n in pre_counts)


ONES = {"p": 1, "q": 1, "r": 1}


@pytest.mark.parametrize(
    "background,first,second",
    [
        # pre-counts (0, 2, 3) and (1, 1, 1); both gains compute to one float
        ({"x": 2, "y": 3, **ONES, "o0": 1, "o1": 1}, ["z", "x", "y"], ["p", "q", "r"]),
        ({"x": 2, "y": 3, **ONES, "o0": 1, "o1": 1, "o2": 1}, ["z", "x", "y"], ["p", "q", "r"]),
        # pre-counts (0, 2, 2, 3) and (1, 1, 1, 2); the first gain computes
        # one ulp above the second, yet the first wins in class_entropy
        ({"x": 2, "w": 2, "y": 3, **ONES, "s": 2, "o0": 1}, ["z", "x", "w", "y"], ["p", "q", "r", "s"]),
    ],
)
def test_equal_true_gains_are_settled_by_class_entropy(background, first, second):
    # The two candidates raise sum(c ln c) by exactly the same amount
    # (256/27 * 27/4 = 4 * 4 * 4 = 64, and 432 for the 4-class pair), so
    # their true entropies tie, but their merged counts differ and
    # class_entropy tells them apart in the last bits. The winner is
    # always named "b", so breaking the tie by gain and then by image id,
    # or by the smallest computed gain alone, picks "a".
    auto = auto_from_counts(background)
    counts = sample([], auto, len(auto), 1, 0).class_counts
    pre_first = sorted(counts.get(c, 0) for c in first)
    pre_second = sorted(counts.get(c, 0) for c in second)
    assert pre_first != pre_second
    assert exp_gain(pre_first) == exp_gain(pre_second)

    def after(classes):
        merged = dict(counts)
        for c in classes:
            merged[c] = merged.get(c, 0) + 1
        return reference_entropy(merged.values())

    assert after(first) != after(second)
    first_wins = after(first) > after(second)
    a = img("b" if first_wins else "a", first)
    b = img("a" if first_wins else "b", second)
    for eligible in ([a, b], [b, a]):
        state = sample(eligible, auto, len(auto) + 1, n_candidates=2, seed=0)
        assert state.trace[0].chosen == "b"
        assert state.trace == reference_sample(eligible, auto, len(auto) + 1, 2, 0).trace


# ---------------------------------------------------------------- domains


DOMAIN = DomainSpec(
    in_domain=frozenset({"person", "car", "dog"}),
    out_of_domain=frozenset({"jellyfish", "tank"}),
    ignored=frozenset({"wheel", "human eye"}),
)


def test_domain_classification_cases():
    assert classify_domain(img("a", ["person", "dog"]), DOMAIN) is Domain.IN_DOMAIN
    assert classify_domain(img("b", ["person", "jellyfish"]), DOMAIN) is Domain.NEAR_DOMAIN
    assert classify_domain(img("c", ["jellyfish", "tank"]), DOMAIN) is Domain.OUT_OF_DOMAIN


def test_ignored_classes_are_stripped_before_classification():
    assert classify_domain(img("a", ["person", "wheel"]), DOMAIN) is Domain.IN_DOMAIN
    with pytest.raises(AllClassesIgnoredError):
        classify_domain(img("b", ["wheel", "human eye"]), DOMAIN)


def test_unlisted_classes_count_as_out_of_domain():
    assert classify_domain(img("a", ["zeppelin"]), DOMAIN) is Domain.OUT_OF_DOMAIN
    assert classify_domain(img("b", ["person", "zeppelin"]), DOMAIN) is Domain.NEAR_DOMAIN


def test_domain_partition_is_total():
    rng = random.Random(55)
    universe = sorted(DOMAIN.in_domain | DOMAIN.out_of_domain | {"zeppelin", "kite"})
    for i in range(100):
        classes = rng.sample(universe, rng.randint(1, 4))
        bucket = classify_domain(img(f"i{i}", classes), DOMAIN)
        assert bucket in (Domain.IN_DOMAIN, Domain.NEAR_DOMAIN, Domain.OUT_OF_DOMAIN)


def test_domain_spec_must_be_disjoint():
    with pytest.raises(OverlappingDomainsError):
        DomainSpec(frozenset({"a"}), frozenset({"a"}))
    assert issubclass(OverlappingDomainsError, LexbeamError) and issubclass(OverlappingDomainsError, ValueError)


def test_record_json_schemas():
    rec = ImageRecord.from_json({"image_id": "i1", "classes": ["a", "a", "b"]})
    assert rec.classes == frozenset({"a", "b"})
    assert rec.rotation is Rotation.ZERO
    rec = ImageRecord.from_json(
        {"image_id": "i2", "classes": ["a"], "rotation": "unknown"}
    )
    assert rec.rotation is Rotation.UNKNOWN


@pytest.mark.parametrize("key", ["in_domain", "out_of_domain"])
def test_domain_spec_keys_are_required(key):
    sets = {"in_domain": frozenset({"cat"}), "out_of_domain": frozenset({"cow"})}
    assert DomainSpec(**sets).ignored == frozenset()
    del sets[key]
    with pytest.raises(TypeError, match=key):
        DomainSpec(**sets)


@pytest.mark.parametrize(
    "obj, error, base",
    [
        ({"classes": ["a", "b"]}, MissingFieldError, KeyError),
        ({"image_id": "i1"}, MissingFieldError, KeyError),
        ({"image_id": "i1", "classes": ["a", "b"], "rotation": "sideways"}, UnknownRotationError, ValueError),
        ({"image_id": "i1", "classes": ["a", "b"], "rotation": "ZERO"}, UnknownRotationError, ValueError),
        ({"image_id": "i1", "classes": ["a", "b"], "rotation": 0}, UnknownRotationError, ValueError),
        ({"image_id": "i1", "classes": ["a", "b"], "rotation": None}, UnknownRotationError, ValueError),
        ({"image_id": "i1", "classes": ["a", "b"], "rotation": ["zero"]}, UnknownRotationError, ValueError),
        # null and [1] were read as the ids "None" and "[1]"
        ({"image_id": None, "classes": ["a", "b"]}, MalformedImageError, TypeError),
        ({"image_id": [1], "classes": ["a", "b"]}, MalformedImageError, TypeError),
        ({"image_id": 1, "classes": ["a", "b"]}, MalformedImageError, TypeError),
    ],
)
def test_malformed_image_fields_are_typed_errors(obj, error, base):
    with pytest.raises(error) as info:
        ImageRecord.from_json(obj)
    assert isinstance(info.value, LexbeamError)
    assert isinstance(info.value, base)
    assert str(info.value).startswith(("an image record has no", "image 'i1': rotation"))


@pytest.mark.parametrize("classes", ["dog", 5, None, ["dog", 5], {"dog": 1}])
def test_image_classes_must_be_a_list_of_strings(classes):
    # "dog" used to be read as the classes d, o and g
    with pytest.raises(MalformedImageError):
        ImageRecord.from_json({"image_id": "i1", "classes": classes})
    assert issubclass(MalformedImageError, TypeError)


# ----------------------------------------------------------------- n-grams


def test_ngram_counts_by_hand():
    stats = ngram_stats([["a", "b", "a", "b"]])
    assert stats == {1: 2, 2: 2, 3: 2, 4: 1}


def test_ngram_counts_empty_corpus():
    assert ngram_stats([]) == {1: 0, 2: 0, 3: 0, 4: 0}


def test_ngram_counts_invariant_under_caption_order():
    caps = [["a", "b"], ["b", "c"], ["a"]]
    assert ngram_stats(caps) == ngram_stats(list(reversed(caps)))


def brute_force_ngrams(captions, n):
    grams = set()
    for cap in captions:
        cap = list(cap)
        grams.update(tuple(cap[i : i + n]) for i in range(len(cap) - n + 1))
    return len(grams)


def test_ngram_counts_match_bruteforce_on_random_corpora():
    rng = random.Random(616)
    for _ in range(30):
        corpus = [
            [rng.choice("abcde") for _ in range(rng.randint(0, 9))]
            for _ in range(rng.randint(0, 12))
        ]
        stats = ngram_stats(corpus, n_max=4)
        for n in range(1, 5):
            assert stats[n] == brute_force_ngrams(corpus, n)


@pytest.mark.parametrize(
    "alphabet",
    [
        [1, 2, 3],
        [(1,), (1, 2), (), ("a",)],
        [1, "1", (1,), ("1",), None],
    ],
)
def test_ngram_counts_of_non_string_tokens_match_bruteforce(alphabet):
    rng = random.Random(len(alphabet))
    for _ in range(20):
        corpus = [
            [rng.choice(alphabet) for _ in range(rng.randint(0, 9))]
            for _ in range(rng.randint(0, 12))
        ]
        stats = ngram_stats(corpus, n_max=5)
        assert stats == {n: brute_force_ngrams(corpus, n) for n in range(1, 6)}


def test_ngram_counts_keep_1_and_quoted_1_apart():
    assert ngram_stats([[1, "1", 1], ["1", 1]], n_max=3) == {1: 2, 2: 2, 3: 1}


def test_ngram_counts_monotone_under_corpus_growth():
    rng = random.Random(77)
    small = [[rng.choice("abc") for _ in range(5)] for _ in range(5)]
    big = small + [[rng.choice("abc") for _ in range(5)] for _ in range(5)]
    s, b = ngram_stats(small), ngram_stats(big)
    assert all(s[n] <= b[n] for n in range(1, 5))


def test_ngram_rejects_nonpositive_n_max():
    with pytest.raises(NonPositiveCountError):
        ngram_stats([["a"]], n_max=0)


@pytest.mark.parametrize("n_max", [2.5, "3", True, None])
def test_ngram_refuses_an_n_max_that_is_not_an_int(n_max):
    with pytest.raises(MalformedConfigError, match=f"n_max must be an int, got {re.escape(repr(n_max))}") as info:
        ngram_stats([["a", "b"]], n_max=n_max)
    assert isinstance(info.value, LexbeamError) and isinstance(info.value, TypeError)


def test_ngram_counts_past_the_longest_caption_cost_no_loop():
    # every n-gram longer than the longest caption counts 0; a loop over
    # each n would take tens of seconds here
    started = time.perf_counter()
    stats = ngram_stats([["a", "b"]], 10**6)
    elapsed = time.perf_counter() - started
    assert list(stats) == list(range(1, 10**6 + 1))
    assert stats[1] == 2 and stats[2] == 1 and not any(stats[n] for n in range(3, 10**6 + 1))
    assert elapsed < 10.0, elapsed


@pytest.mark.parametrize("n_classes", [1, 7])
def test_sample_rejects_an_eligible_image_outside_the_pools(n_classes):
    # exclude() drops images with one class and admits those with seven
    odd = img("odd", [f"c{i}" for i in range(n_classes)])
    with pytest.raises(UnpooledImageError, match="'odd' has %d classes; run exclude" % n_classes):
        sample([img("x", ["a", "b"]), odd], [], target_count=2, n_candidates=1, seed=0)
    assert issubclass(UnpooledImageError, LexbeamError) and issubclass(UnpooledImageError, ValueError)


def test_sample_rejects_nonpositive_n_candidates():
    with pytest.raises(NonPositiveCountError):
        sample([img("x", ["a", "b"])], [], target_count=1, n_candidates=0, seed=0)
    assert issubclass(NonPositiveCountError, LexbeamError) and issubclass(NonPositiveCountError, ValueError)


def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize("A dog, chasing the ball!") == ["a", "dog", "chasing", "the", "ball"]
    assert tokenize("one-two  three's") == ["one", "two", "three", "s"]


# Every ASCII character, then non-ASCII punctuation, spaces and letters
# whose lowercase or whitespace status differs from ASCII's.
TOKENIZE_ALPHABET = [chr(i) for i in range(128)] + list("\u2014\u201c\uff0c\xa0\u2009\u3000\x85\u0130\u03a3\xdf")


def test_tokenize_matches_the_per_punctuation_dict_reference():
    punct = str.maketrans({ch: " " for ch in string.punctuation})
    rng = random.Random(2019)
    seen: dict[str, str] = {}
    for case in range(5000):
        text = "".join(rng.choices(TOKENIZE_ALPHABET, k=rng.randint(0, 40)))
        want = list(map(sys.intern, text.lower().translate(punct).split()))
        got = tokenize(text)
        assert got == want, repr(text)
        for tok in got:
            assert seen.setdefault(tok, tok) is tok, repr(text)  # repeats share one string
    assert len(seen) > 1000
