"""Acceptance suite: one test per criterion, each printing a PASS line
(run with ``pytest tests/test_acceptance.py -v -s``).

Oracles here are independent of the implementation under test: plain
substring scans, exhaustive sequence enumeration, recomputed entropies
and set-based n-gram recounts.
"""

import dataclasses
import json
import math
import random
import subprocess
import sys
import time

import pytest

from lexbeam import (
    Blacklist,
    ConstraintGroup,
    DecodeConfig,
    Detection,
    Domain,
    DomainSpec,
    FilterMode,
    ImageRecord,
    Rotation,
    Vocabulary,
    classify_domain,
    compile_fsm,
    decode,
    decode_unconstrained,
    default_hierarchy,
    exclude,
    filter_constraints,
    iou,
    ngram_stats,
    sample,
    suppress_overlaps,
)
from lexbeam.errors import NoHypothesisError

from helpers import (
    DATA,
    GOLDEN_RUNS,
    constrained_argmax,
    groups_to_ids,
    plain_beam_search,
    random_bigram,
    random_groups,
    scan_satisfied,
    winner,
    write_model,
)


def ok(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def single_word_groups(*words):
    return [ConstraintGroup(label=w, alternatives=((w,),)) for w in words]


def test_01_fsm_structure_is_exact():
    started = time.monotonic()
    vocab = Vocabulary(["d1", "d2", "d3", "x", "y"])
    base = compile_fsm(single_word_groups("d1", "d2", "d3"), 2, vocab)
    assert base.state_count == 8
    assert len(base.accepting_states()) == 4

    with_two_word = compile_fsm(
        [
            ConstraintGroup("g0", (("d1",), ("x", "y"))),
            ConstraintGroup("g1", (("d2",),)),
            ConstraintGroup("g2", (("d3",),)),
        ],
        2,
        vocab,
    )
    assert with_two_word.state_count == base.state_count + 4

    with_three_word = compile_fsm(
        [
            ConstraintGroup("g0", (("d1",), ("x", "y"))),
            ConstraintGroup("g1", (("d2",), ("d2", "x", "y"))),
            ConstraintGroup("g2", (("d3",),)),
        ],
        2,
        vocab,
    )
    assert with_three_word.state_count == base.state_count + 4 + 8
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    ok(1, f"8 base states / 4 accepting, +4 and +8 for phrases ({elapsed:.3f}s)")


def test_02_oracle_optimality_on_200_instances():
    started = time.monotonic()
    rng = random.Random(160493)
    checked = 0
    while checked < 200:
        size = rng.randint(2, 3)  # 4-5 tokens with the two sentinels
        vocab = Vocabulary([f"w{i}" for i in range(size)])
        model = random_bigram(rng, vocab)
        groups = random_groups(rng, vocab, max_groups=3, max_phrase_len=2)
        quota = rng.randint(1, len(groups))
        max_len = rng.randint(3, 5)
        width = len(vocab) ** max_len
        fsm = compile_fsm(groups, quota, vocab)
        result = decode(
            model, fsm, DecodeConfig(beam_width=width, max_len=max_len)
        )
        expected = constrained_argmax(
            model, groups_to_ids(groups, vocab), quota, max_len
        )
        if expected is None or expected[0] == float("-inf"):
            # quota unreachable within max_len; the decoder fell back
            assert result.satisfied_count < quota or result.logprob == float("-inf")
            continue
        assert result.satisfied_count >= quota
        assert abs(result.logprob - expected[0]) < 1e-9
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    ok(2, f"{checked} instances matched the exhaustive argmax ({elapsed:.1f}s)")


def test_03_constraint_guarantee_without_fallback():
    rng = random.Random(31337)
    returned = 0
    attempts = 0
    while returned < 1000:
        attempts += 1
        vocab = Vocabulary([f"w{i}" for i in range(rng.randint(2, 4))])
        model = random_bigram(rng, vocab)
        groups = random_groups(rng, vocab, max_groups=3, max_phrase_len=2)
        quota = rng.randint(1, len(groups))
        fsm = compile_fsm(groups, quota, vocab)
        cfg = DecodeConfig(
            beam_width=rng.randint(2, 4),
            max_len=rng.randint(4, 7),
            min_satisfied_fallback=False,
        )
        try:
            result = decode(model, fsm, cfg)
        except NoHypothesisError:
            continue
        content = vocab.strip_sentinels(result.tokens)
        assert scan_satisfied(content, groups_to_ids(groups, vocab)) >= quota
        returned += 1
    ok(3, f"{returned} decodes passed the independent substring scan "
          f"({attempts - returned} quota-unreachable instances skipped)")


def test_04_empty_constraints_equal_unconstrained_on_50_scorers():
    rng = random.Random(8128)
    for _ in range(50):
        vocab = Vocabulary([f"w{i}" for i in range(rng.randint(1, 4))])
        model = random_bigram(rng, vocab)
        width = rng.randint(1, 6)
        max_len = rng.randint(1, 6)
        cfg = DecodeConfig(beam_width=width, max_len=max_len)
        via_fsm = decode(model, compile_fsm([], 0, vocab), cfg)
        direct = decode_unconstrained(model, width, max_len)
        assert via_fsm == direct
        # decode_unconstrained's definition, asked for finalists: DecodeResult
        # equality compares every state's finalists too
        full = decode(model, compile_fsm([], 0, vocab), dataclasses.replace(cfg, finalists=True))
        assert full == plain_beam_search(model, width, max_len)
        assert winner(direct) == winner(full)
    ok(4, "50/50 scorers: identical results with and without the trivial machine")


def test_05_filter_pipeline_fidelity():
    hier = default_hierarchy()
    blacklist = Blacklist.default()
    box = (0.0, 0.0, 10.0, 10.0)

    dog = Detection("Dog", 0.9, box)
    mammal = Detection("Mammal", 0.95, box)
    assert iou(dog.box, mammal.box) == 1.0
    assert suppress_overlaps([dog, mammal], hier) == [dog]

    eye = Detection("Human eye", 0.99, (0.0, 0.0, 5.0, 5.0))
    for extra in ([], [dog]):
        survivors = filter_constraints([eye] + extra, hier, blacklist, FilterMode.FULL)
        assert all(g.label != "Human eye" for g in survivors)

    rng = random.Random(12)
    classes = ["Dog", "Cat", "Car", "Table", "Chair", "Camel", "Horse", "Boat"]
    for _ in range(20):
        dets = [
            Detection(
                rng.choice(classes),
                round(rng.uniform(0.05, 0.99), 3),
                (i * 20.0, 0.0, i * 20.0 + 10.0, 10.0),
            )
            for i in range(rng.randint(0, 9))
        ]
        for mode in FilterMode:
            assert len(filter_constraints(dets, hier, blacklist, mode)) <= 3

    for _, golden, argv in GOLDEN_RUNS:
        if argv[0] != "filter":
            continue
        proc = subprocess.run(
            [sys.executable, "-m", "lexbeam.cli", *map(str, argv)],
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (DATA / golden).read_bytes(), golden
    ok(5, "ancestor suppression, blacklist, top-3 cap and all four mode goldens hold")


def test_06_iou_arithmetic():
    assert abs(iou((0, 0, 2, 2), (1, 1, 3, 3)) - 1.0 / 7.0) < 1e-12
    rng = random.Random(271828)
    for _ in range(10_000):
        def box():
            x0, y0 = rng.uniform(-20, 80), rng.uniform(-20, 80)
            return (x0, y0, x0 + rng.uniform(1e-3, 60), y0 + rng.uniform(1e-3, 60))

        a, b = box(), box()
        v, w = iou(a, b), iou(b, a)
        assert v == w
        assert 0.0 <= v <= 1.0
    ok(6, "1/7 case exact; symmetry and [0,1] range on 10,000 random pairs")


def _synthetic_images(count, seed):
    rng = random.Random(seed)
    pool = [f"cls{i:02d}" for i in range(15)]
    images = []
    for i in range(count):
        roll = rng.random()
        if roll < 0.15:
            rotation = rng.choice([Rotation.NONZERO, Rotation.UNKNOWN])
            n = rng.randint(1, 8)
        elif roll < 0.30:
            rotation = Rotation.ZERO
            n = 1
        elif roll < 0.42:
            rotation = Rotation.ZERO
            n = rng.randint(7, 9)
        else:
            rotation = Rotation.ZERO
            n = rng.randint(2, 6)
        images.append(
            ImageRecord(f"im{i:03d}", frozenset(rng.sample(pool, n)), rotation)
        )
    return images


def test_07_sampler_argmax_and_exclusion():
    images = _synthetic_images(200, seed=60_046)
    eligible, auto = exclude(images)

    expected_dropped = {
        img.image_id
        for img in images
        if img.rotation is not Rotation.ZERO or len(img.classes) < 2
    }
    kept = {img.image_id for img in eligible} | {img.image_id for img in auto}
    assert kept == {img.image_id for img in images} - expected_dropped
    assert {img.image_id for img in auto} == {
        img.image_id
        for img in images
        if img.rotation is Rotation.ZERO and len(img.classes) > 6
    }

    target = len(auto) + 60
    state = sample(eligible, auto, target_count=target, n_candidates=5, seed=7)
    assert len(state.selected) == target
    assert set(img.image_id for img in auto) <= set(state.selected)

    # replay every step: recompute each drawn candidate's post-addition
    # entropy independently and confirm the argmax (ties -> smallest id)
    by_id = {img.image_id: img for img in images}
    counts: dict[str, int] = {}
    for img in auto:
        for c in img.classes:
            counts[c] = counts.get(c, 0) + 1

    def entropy_after(classes):
        merged = dict(counts)
        for c in classes:
            merged[c] = merged.get(c, 0) + 1
        total = sum(merged.values())
        return -sum(v / total * math.log(v / total) for v in sorted(merged.values()))

    assert len(state.trace) == 60
    for step in state.trace:
        scores = {cid: entropy_after(by_id[cid].classes) for cid in step.candidates}
        best = max(scores.values())
        assert scores[step.chosen] == best
        assert step.chosen == min(c for c, s in scores.items() if s == best)
        for c in by_id[step.chosen].classes:
            counts[c] = counts.get(c, 0) + 1
    ok(7, f"exclusions exact; {len(state.trace)} selection steps all argmax-verified")


def test_08_domain_partition():
    spec = DomainSpec(
        in_domain=frozenset({"person", "car", "dog", "table"}),
        out_of_domain=frozenset({"jellyfish", "tank", "lantern"}),
        ignored=frozenset({"wheel", "human eye"}),
    )
    cases = [
        (ImageRecord("in1", frozenset({"person", "dog"})), Domain.IN_DOMAIN),
        (ImageRecord("in2", frozenset({"table"})), Domain.IN_DOMAIN),
        (ImageRecord("in3", frozenset({"person", "wheel"})), Domain.IN_DOMAIN),
        (ImageRecord("near1", frozenset({"person", "jellyfish"})), Domain.NEAR_DOMAIN),
        (ImageRecord("near2", frozenset({"car", "tank", "human eye"})), Domain.NEAR_DOMAIN),
        (ImageRecord("out1", frozenset({"jellyfish", "tank"})), Domain.OUT_OF_DOMAIN),
        (ImageRecord("out2", frozenset({"lantern", "wheel"})), Domain.OUT_OF_DOMAIN),
    ]
    buckets = {Domain.IN_DOMAIN: [], Domain.NEAR_DOMAIN: [], Domain.OUT_OF_DOMAIN: []}
    for image, expected in cases:
        got = classify_domain(image, spec)
        assert got is expected, image.image_id
        buckets[got].append(image.image_id)
    assert sum(len(v) for v in buckets.values()) == len(cases)
    assert buckets[Domain.IN_DOMAIN] == ["in1", "in2", "in3"]
    assert buckets[Domain.NEAR_DOMAIN] == ["near1", "near2"]
    assert buckets[Domain.OUT_OF_DOMAIN] == ["out1", "out2"]
    ok(8, "all three buckets reproduced with ignored-class stripping; partition total")


def test_09_ngram_counter_against_bruteforce():
    assert ngram_stats([["a", "b", "a", "b"]]) == {1: 2, 2: 2, 3: 2, 4: 1}
    rng = random.Random(404)
    for _ in range(100):
        corpus = [
            [rng.choice("abcdef") for _ in range(rng.randint(0, 10))]
            for _ in range(rng.randint(0, 15))
        ]
        stats = ngram_stats(corpus, n_max=4)
        for n in range(1, 5):
            grams = set()
            for cap in corpus:
                grams.update(
                    tuple(cap[i : i + n]) for i in range(len(cap) - n + 1)
                )
            assert stats[n] == len(grams)
    ok(9, "hand case (2,2,2,1) and 100 random corpora recounted exactly")


def test_10_cli_determinism(tmp_path):
    from lexbeam import BigramModel

    vocab = Vocabulary(sorted({"a", "dog", "park", "the", "in", "ran"}))
    model = BigramModel.fit(
        ["the dog ran in the park", "a dog in the park"], alpha=0.5, vocab=vocab
    )
    scorer = tmp_path / "scorer.json"
    write_model(model, scorer)

    constraints = tmp_path / "constraints.jsonl"
    constraints.write_text(
        json.dumps(
            {
                "min_satisfied": 2,
                "groups": [
                    {"label": "dog", "alternatives": [["dog"]]},
                    {"label": "park", "alternatives": [["park"]]},
                ],
                "image_id": "img-1",
            }
        )
        + "\n"
    )

    rng = random.Random(99)
    pool = ["person", "car", "dog", "tree", "boat", "bird", "chair", "lamp"]
    images = tmp_path / "images.jsonl"
    images.write_text(
        "\n".join(
            json.dumps(
                {
                    "image_id": f"im{i:03d}",
                    "classes": sorted(rng.sample(pool, rng.randint(1, 8))),
                    "rotation": rng.choice(["zero", "zero", "nonzero", "unknown"]),
                }
            )
            for i in range(40)
        )
        + "\n"
    )

    captions = tmp_path / "captions.jsonl"
    captions.write_text(
        json.dumps({"caption": "a dog ran in the park"})
        + "\n"
        + json.dumps({"caption": "the dog, the dog!"})
        + "\n"
    )

    fsm_constraints = tmp_path / "fsm.json"
    fsm_constraints.write_text(
        json.dumps(
            {
                "min_satisfied": 2,
                "groups": [
                    {"label": d, "alternatives": [[d]]} for d in ("d1", "d2", "d3")
                ],
            }
        )
    )
    fsm_vocab = tmp_path / "vocab.json"
    fsm_vocab.write_text(json.dumps(["d1", "d2", "d3", "x"]))

    battery = [
        ["filter", "--detections", str(DATA / "detections.jsonl"), "--mode", "full"],
        ["filter", "--detections", str(DATA / "detections.jsonl"), "--mode", "none"],
        ["decode", "--scorer", str(scorer), "--constraints", str(constraints),
         "--beam-width", "5", "--max-len", "8"],
        ["sample", "--images", str(images), "--target", "12", "--candidates", "4",
         "--seed", "21"],
        ["stats", "--captions", str(captions)],
        ["inspect-fsm", "--constraints", str(fsm_constraints), "--vocab", str(fsm_vocab)],
    ]

    recorded = []
    for repeat in range(2):
        outputs = []
        for i, argv in enumerate(battery):
            manifest = tmp_path / f"manifest_{repeat}_{i}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "lexbeam.cli", "--manifest", str(manifest), *argv],
                capture_output=True,
                timeout=300,
            )
            assert proc.returncode == 0, (argv, proc.stderr)
            outputs.append((proc.stdout, manifest.read_bytes()))
        recorded.append(outputs)

    for i, (first, second) in enumerate(zip(*recorded)):
        assert first[0] == second[0], f"stdout differs for invocation {i}"
        assert first[1] == second[1], f"manifest differs for invocation {i}"
    ok(10, f"{len(battery)} invocations, two runs: outputs and manifests byte-identical")
