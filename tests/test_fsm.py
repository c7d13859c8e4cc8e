import random
import re

import numpy as np
import pytest

from lexbeam import (
    MAX_GROUPS,
    ConstraintGroup,
    PhraseMatchMode,
    Vocabulary,
    compile_fsm,
    load_constraints,
)
from lexbeam.errors import (
    EmptyGroupError,
    FSMTooLargeError,
    MalformedGroupError,
    OutOfRangeError,
    QuotaRangeError,
    TooManyGroupsError,
    UnknownTokenError,
)

from helpers import (
    all_sequences,
    groups_to_ids,
    random_groups,
    reference_transitions,
    scan_satisfied,
)


def single_word_groups(*words):
    return [ConstraintGroup(label=w, alternatives=((w,),)) for w in words]


def dense_table(fsm):
    """The ``state_count x vocab_size`` transition table: each token's column of ``fsm.table``."""
    return fsm.table[:, fsm.columns]


@pytest.fixture
def vocab():
    return Vocabulary(["d1", "d2", "d3", "x", "y"])


# ---------------------------------------------------------------- structure


def test_three_single_word_groups_has_eight_states(vocab):
    fsm = compile_fsm(single_word_groups("d1", "d2", "d3"), 2, vocab)
    assert fsm.state_count == 8
    assert fsm.accepting_states() == (3, 5, 6, 7)


def test_single_two_word_phrase_has_three_states(vocab):
    groups = [ConstraintGroup("p", (("d1", "d2"),))]
    fsm = compile_fsm(groups, 1, vocab)
    assert fsm.state_count == 3  # 2 mask states + 1 progress state
    assert fsm.accepting_states() == (1,)


def test_empty_constraint_set_is_one_state_all_accepting(vocab):
    fsm = compile_fsm([], 0, vocab)
    assert fsm.state_count == 1
    assert fsm.accepting(0)
    assert np.all(dense_table(fsm) == 0)


def test_two_and_three_word_alternatives_add_4_and_8_states(vocab):
    base = compile_fsm(single_word_groups("d1", "d2", "d3"), 2, vocab)
    with_two = compile_fsm(
        [
            ConstraintGroup("g0", (("d1",), ("x", "y"))),
            ConstraintGroup("g1", (("d2",),)),
            ConstraintGroup("g2", (("d3",),)),
        ],
        2,
        vocab,
    )
    with_both = compile_fsm(
        [
            ConstraintGroup("g0", (("d1",), ("x", "y"))),
            ConstraintGroup("g1", (("d2",), ("x", "y", "d2"))),
            ConstraintGroup("g2", (("d3",),)),
        ],
        2,
        vocab,
    )
    assert base.state_count == 8
    assert with_two.state_count == base.state_count + 4
    assert with_both.state_count == 8 + 4 + 8 == 20


def test_state_count_formula_on_random_sets(vocab):
    rng = random.Random(20240501)
    for _ in range(60):
        groups = random_groups(rng, vocab, max_groups=4, max_phrase_len=3, max_alts=3)
        fsm = compile_fsm(groups, 1, vocab)
        n = len(groups)
        extra = sum(
            len(alt) - 1 for g in groups for alt in g.alternatives if len(alt) > 1
        )
        assert fsm.state_count == 2**n + 2 ** (n - 1) * extra


# --------------------------------------------------------------- transitions


def test_two_word_phrase_transitions_follow_the_figure(vocab):
    a1, a2 = vocab.id("d1"), vocab.id("d2")
    for mode in PhraseMatchMode:
        fsm = compile_fsm([ConstraintGroup("p", (("d1", "d2"),))], 1, vocab, mode)
        progress = fsm.step(0, a1)
        assert progress == 2
        assert fsm.step(progress, a2) == 1
        assert fsm.step(0, vocab.id("x")) == 0


def test_full_mask_state_self_loops(vocab):
    fsm = compile_fsm(single_word_groups("d1", "d2", "d3"), 2, vocab)
    full = 7
    for tok in range(len(vocab)):
        assert fsm.satisfied_mask(fsm.step(full, tok)) == 7


def test_mismatch_that_restarts_the_phrase_differs_by_mode(vocab):
    groups = [ConstraintGroup("p", (("d1", "d2"),))]
    a1 = vocab.id("d1")
    faithful = compile_fsm(groups, 1, vocab, PhraseMatchMode.FAITHFUL)
    failure = compile_fsm(groups, 1, vocab, PhraseMatchMode.FAILURE)
    progress = faithful.step(0, a1)
    assert faithful.step(progress, a1) == 0
    assert failure.step(progress, a1) == progress

    # hand-trace of the sequence d1, d1, d2 under both semantics
    seq = vocab.ids(["d1", "d1", "d2"])
    assert not faithful.accepting(faithful.run(seq))
    assert failure.accepting(failure.run(seq))


def test_step_validates_ranges(vocab):
    fsm = compile_fsm(single_word_groups("d1"), 1, vocab)
    with pytest.raises(OutOfRangeError):
        fsm.step(fsm.state_count, 0)
    with pytest.raises(OutOfRangeError):
        fsm.step(0, len(vocab))
    with pytest.raises(OutOfRangeError):
        fsm.accepting(-1)
    with pytest.raises(OutOfRangeError):
        fsm.satisfied_count(99)


# ------------------------------------------------------ accepting/satisfied


def test_accepting_thresholds(vocab):
    fsm = compile_fsm(single_word_groups("d1", "d2", "d3"), 2, vocab)
    assert fsm.accepting(3)  # groups 0 and 1 satisfied
    assert not fsm.accepting(fsm.initial_state)
    always = compile_fsm(single_word_groups("d1"), 0, vocab)
    assert all(always.accepting(s) for s in range(always.state_count))


def test_satisfied_count_examples(vocab):
    fsm = compile_fsm(single_word_groups("d1", "d2", "d3"), 2, vocab)
    assert fsm.satisfied_count(fsm.initial_state) == 0
    assert fsm.satisfied_count(7) == 3
    state = fsm.run(vocab.ids(["d1", "d3"]))
    assert state == 5
    assert fsm.satisfied_count(state) == 2


# ----------------------------------------------------------------- oracles


def brute_accepts(seq, groups_ids, quota):
    return scan_satisfied(seq, groups_ids) >= quota


def test_failure_mode_recognizes_exactly_the_substring_semantics():
    vocab = Vocabulary(["a", "b", "c"])
    cases = [
        [ConstraintGroup("g0", (("a", "b"),)), ConstraintGroup("g1", (("b", "c"),))],
        [ConstraintGroup("g0", (("a", "b"),)), ConstraintGroup("g1", (("a", "c"),))],
        [ConstraintGroup("g0", (("a", "a"),))],
        [ConstraintGroup("g0", (("a",), ("a", "b")))],
        [ConstraintGroup("g0", (("a", "b", "a"),)), ConstraintGroup("g1", (("b",),))],
    ]
    content = vocab.ids(vocab.content_tokens)
    for groups in cases:
        for quota in range(len(groups) + 1):
            fsm = compile_fsm(groups, quota, vocab)
            ids = groups_to_ids(groups, vocab)
            for seq in all_sequences(content, 6):
                assert fsm.accepting(fsm.run(seq)) == brute_accepts(seq, ids, quota), (
                    groups,
                    quota,
                    seq,
                )


def test_failure_mode_recognition_on_random_sets():
    rng = random.Random(77)
    for trial in range(25):
        size = rng.randint(2, 3)
        vocab = Vocabulary([f"w{i}" for i in range(size)])
        groups = random_groups(rng, vocab, max_groups=3, max_phrase_len=3, max_alts=2)
        quota = rng.randint(1, len(groups))
        fsm = compile_fsm(groups, quota, vocab)
        ids = groups_to_ids(groups, vocab)
        content = vocab.ids(vocab.content_tokens)
        for seq in all_sequences(content, 6):
            assert fsm.accepting(fsm.run(seq)) == brute_accepts(seq, ids, quota)


def test_failure_mode_recognition_on_wider_vocab():
    rng = random.Random(78001)
    vocab = Vocabulary(["a", "b", "c"])  # 5 tokens with sentinels
    for _ in range(10):
        groups = random_groups(rng, vocab, max_groups=3, max_phrase_len=2, max_alts=2)
        fsm = compile_fsm(groups, 1, vocab)
        ids = groups_to_ids(groups, vocab)
        for seq in all_sequences(range(len(vocab)), 4):
            assert fsm.accepting(fsm.run(seq)) == brute_accepts(seq, ids, 1)


def test_transitions_match_the_brute_force_oracle():
    # whole tables, state ids included: the NFA differentials compare masks only
    rng = random.Random(4242)
    vocab = Vocabulary(["a", "b", "c"])
    pool = ["a", "b", "c", "<s>", "</s>"]
    for trial in range(340):
        wide = trial >= 300  # 4-6 groups, the odd ones without a phrase
        groups = []
        for g in range(rng.randint(4, 6) if wide else rng.randint(0, 3)):
            alts = []
            for _ in range(rng.randint(1, 3)):
                x, y = rng.choice(pool[:3]), rng.choice(pool[:3])
                alts.append(rng.choice([
                    (x, x), (x, y, x), (x, x, y),  # self-overlapping
                    (x, y), (x, y, y), (x,),  # shared prefixes across alternatives
                    tuple(rng.choice(pool) for _ in range(rng.randint(1, 3))),
                ]))
            if wide and g % 2:
                alts = [alt[:1] for alt in alts]
            groups.append(ConstraintGroup(f"g{g}", tuple(alts)))
        if trial % 10 == 0:
            groups.append(ConstraintGroup("sentinel", ((rng.choice(["<s>", "</s>"]),),)))
        for mode in PhraseMatchMode:
            fsm = compile_fsm(groups, len(groups) // 2, vocab, mode)
            expected = reference_transitions(groups, vocab, mode.value)
            table = dense_table(fsm)
            assert table.dtype == (np.int16 if fsm.state_count < 2**15 else np.int32)
            assert np.array_equal(table, expected), (groups, mode)


# -------------------------------------------------------------- properties


def test_satisfied_mask_is_monotone_along_every_edge():
    rng = random.Random(13)
    vocab = Vocabulary(["a", "b", "c", "d"])
    for _ in range(20):
        groups = random_groups(rng, vocab, max_groups=3, max_phrase_len=3, max_alts=2)
        for mode in PhraseMatchMode:
            fsm = compile_fsm(groups, 1, vocab, mode)
            for state in range(fsm.state_count):
                before = fsm.satisfied_mask(state)
                for tok in range(len(vocab)):
                    after = fsm.satisfied_mask(fsm.step(state, tok))
                    assert after & before == before


def test_compile_is_deterministic(vocab):
    groups = [
        ConstraintGroup("g0", (("x", "y"), ("d1",))),
        ConstraintGroup("g1", (("d2",), ("d3",))),
    ]
    a = compile_fsm(groups, 2, vocab)
    b = compile_fsm(groups, 2, vocab)
    assert np.array_equal(dense_table(a), dense_table(b))
    assert [a.describe_state(s) for s in range(a.state_count)] == [
        b.describe_state(s) for s in range(b.state_count)
    ]


def test_modes_build_identical_tables_for_single_word_groups():
    rng = random.Random(99)
    vocab = Vocabulary(["a", "b", "c", "d"])
    for _ in range(20):
        groups = random_groups(rng, vocab, max_groups=4, max_phrase_len=1, max_alts=3)
        faithful = compile_fsm(groups, 1, vocab, PhraseMatchMode.FAITHFUL)
        failure = compile_fsm(groups, 1, vocab, PhraseMatchMode.FAILURE)
        assert np.array_equal(dense_table(faithful), dense_table(failure))


def test_faithful_mode_never_claims_more_than_failure_mode():
    # The reset semantics can only lose matches, never invent them.
    rng = random.Random(1234)
    vocab = Vocabulary(["a", "b", "c"])
    content = vocab.ids(vocab.content_tokens)
    for _ in range(15):
        groups = random_groups(rng, vocab, max_groups=2, max_phrase_len=3, max_alts=2)
        faithful = compile_fsm(groups, 1, vocab, PhraseMatchMode.FAITHFUL)
        failure = compile_fsm(groups, 1, vocab, PhraseMatchMode.FAILURE)
        ids = groups_to_ids(groups, vocab)
        for seq in all_sequences(content, 5):
            pf = faithful.satisfied_mask(faithful.run(seq))
            ff = failure.satisfied_mask(failure.run(seq))
            assert pf & ff == pf
            assert ff == sum(
                1 << g
                for g, alts in enumerate(ids)
                if any(
                    tuple(seq[i : i + len(alt)]) == alt
                    for alt in alts
                    for i in range(len(seq))
                )
            )


# ------------------------------------------------------------------ errors


def test_group_validation():
    with pytest.raises(EmptyGroupError):
        ConstraintGroup("g", ())
    with pytest.raises(EmptyGroupError):
        ConstraintGroup("g", ((),))
    deduped = ConstraintGroup("g", (("a",), ("a",), ("b",)))
    assert deduped.alternatives == (("a",), ("b",))
    with pytest.raises(MalformedGroupError):
        ConstraintGroup("g", "dog")
    with pytest.raises(MalformedGroupError):
        ConstraintGroup.from_json({"label": "g", "alternatives": ["dog"]})


@pytest.mark.parametrize("alternatives", [5, None, (("a", 5),), [["a"], [None]], (["a"], "b"), {("a",): 1}])
def test_group_rejects_alternatives_that_are_not_lists_of_token_strings(alternatives):
    with pytest.raises(MalformedGroupError):
        ConstraintGroup("g", alternatives)


def test_group_from_json_needs_an_object_with_alternatives():
    with pytest.raises(MalformedGroupError):
        ConstraintGroup.from_json({"label": "g"})
    assert ConstraintGroup.from_json({"alternatives": [["a"]]}) == ConstraintGroup("", (("a",),))


@pytest.mark.parametrize(
    "record",
    [
        {"groups": [{"label": "g", "alternatives": 5}]},
        {"groups": [{"label": "g", "alternatives": [5]}]},
        {"groups": [{"label": "g", "alternatives": [[["dog"]]]}]},
        {"groups": [{"label": "g", "alternatives": [["dog", 5]]}]},
        {"groups": [5]},
        {"groups": [["dog"]]},
        {"groups": {"label": "g", "alternatives": [["dog"]]}},
        [{"label": "g", "alternatives": [["dog"]]}],
        {"image_id": 1},
        {"min_satisfied": 0, "groups": None},
    ],
)
def test_load_constraints_rejects_non_list_and_non_object_json(record):
    with pytest.raises(MalformedGroupError):
        load_constraints(record)


def test_compile_errors(vocab):
    with pytest.raises(UnknownTokenError):
        compile_fsm([ConstraintGroup("g", (("zebra",),))], 1, vocab)
    with pytest.raises(TooManyGroupsError):
        compile_fsm(single_word_groups(*["d1"] * (MAX_GROUPS + 1)), 1, vocab)
    with pytest.raises(QuotaRangeError):
        compile_fsm(single_word_groups("d1"), 2, vocab)
    with pytest.raises(QuotaRangeError):
        compile_fsm(single_word_groups("d1"), -1, vocab)


@pytest.mark.parametrize("quota", [1.5, True, False, "1", None, np.int64(1)])
def test_quota_must_be_an_int(vocab, quota):
    # one check for the compiler and the record reader, with one message
    message = f"min_satisfied must be an integer, got {re.escape(repr(quota))}"
    with pytest.raises(MalformedGroupError, match=message):
        compile_fsm(single_word_groups("d1", "d2"), quota, vocab)
    if quota is not None:
        with pytest.raises(MalformedGroupError, match=message):
            load_constraints({"min_satisfied": quota, "groups": []})


# ---------------------------------------------------------------- JSON I/O


def test_load_constraints_roundtrip():
    obj = {
        "min_satisfied": 2,
        "groups": [
            {"label": "camel", "alternatives": [["camel"], ["camels"]]},
            {"label": "tree", "alternatives": [["tree"]]},
        ],
    }
    groups, k = load_constraints(obj)
    assert k == 2
    assert groups[0].label == "camel"
    assert groups[0].alternatives == (("camel",), ("camels",))
    assert groups[0].to_json() == obj["groups"][0]


def test_compile_scales_to_large_vocabularies():
    import time
    import tracemalloc

    vocab = Vocabulary([f"tok{i}" for i in range(50_000)])
    groups = [
        ConstraintGroup("a", (("tok10",), ("tok11", "tok12"))),
        ConstraintGroup("b", (("tok20",), ("tok21", "tok22", "tok23"))),
        ConstraintGroup("c", (("tok30",),)),
    ]
    started = time.monotonic()
    tracemalloc.start()
    try:
        fsm = compile_fsm(groups, 2, vocab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.monotonic() - started < 2.0
    # a quarter of the dense int32 table: compiling must not build it
    assert peak < fsm.state_count * len(vocab)
    assert dense_table(fsm).shape == (fsm.state_count, len(vocab))
    assert fsm.step(0, vocab.id("tok31")) == 0  # uninvolved token self-loops
    assert fsm.satisfied_count(fsm.run(vocab.ids(["tok10", "tok30"]))) == 2


@pytest.mark.parametrize("mode", list(PhraseMatchMode))
def test_compile_peaks_at_a_small_multiple_of_the_table(mode):
    import tracemalloc

    # 6144 states x 31 columns: a 0.76 MB table
    vocab = Vocabulary([f"tok{i}" for i in range(998)])
    groups = [
        ConstraintGroup(f"g{g}", ((f"tok{3 * g}",), (f"tok{3 * g + 1}", f"tok{3 * g + 2}")))
        for g in range(10)
    ]
    tracemalloc.start()
    try:
        fsm = compile_fsm(groups, 2, vocab, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fsm.state_count == 2**10 + 2**9 * 10
    assert peak < 3_000_000


def test_table_size_is_bounded_before_anything_is_allocated(monkeypatch):
    import tracemalloc

    from lexbeam import fsm as fsm_module

    # 16 groups of one 40-token phrase: 20.5M states x 641 columns
    vocab = Vocabulary([f"tok{i}" for i in range(640)])
    groups = [ConstraintGroup(f"g{g}", (tuple(f"tok{40 * g + i}" for i in range(40)),)) for g in range(16)]
    tracemalloc.start()
    try:
        with pytest.raises(FSMTooLargeError) as info:
            compile_fsm(groups, 1, vocab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(info.value, ValueError)
    assert peak < 1_000_000

    # the bound is on states x (tokens + 1) x 2 bytes below 2**15 states: 8 x 5 x 2 here
    small = [ConstraintGroup("g0", (("x", "y"),)), ConstraintGroup("g1", (("d1", "d2"),))]
    monkeypatch.setattr(fsm_module, "MAX_TABLE_BYTES", 80)
    assert compile_fsm(small, 1, Vocabulary(["d1", "d2", "x", "y"])).table.nbytes == 80
    monkeypatch.setattr(fsm_module, "MAX_TABLE_BYTES", 79)
    with pytest.raises(FSMTooLargeError):
        compile_fsm(small, 1, Vocabulary(["d1", "d2", "x", "y"]))

    # and x 4 bytes from 2**15 states on: 2**15 x 16 x 4 for 15 one-word groups
    words = [f"tok{i}" for i in range(15)]
    monkeypatch.setattr(fsm_module, "MAX_TABLE_BYTES", 2**15 * 16 * 4)
    assert compile_fsm(single_word_groups(*words), 1, Vocabulary(words)).table.nbytes == 2**15 * 16 * 4
    monkeypatch.setattr(fsm_module, "MAX_TABLE_BYTES", 2**15 * 16 * 4 - 1)
    with pytest.raises(FSMTooLargeError):
        compile_fsm(single_word_groups(*words), 1, Vocabulary(words))


def test_load_constraints_defaults_quota_to_two():
    groups, k = load_constraints({"groups": [{"label": "a", "alternatives": [["a"]]}]})
    assert k == 1  # min(2, one group)
    groups, k = load_constraints(
        {
            "groups": [
                {"label": "a", "alternatives": [["a"]]},
                {"label": "b", "alternatives": [["b"]]},
                {"label": "c", "alternatives": [["c"]]},
            ]
        }
    )
    assert k == 2
