import logging
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lexbeam
from lexbeam import (
    Blacklist,
    ClassHierarchy,
    Detection,
    FilterMode,
    default_hierarchy,
    filter_constraints,
    iou,
    suppress_overlaps,
)
from lexbeam.errors import (
    DegenerateBoxError,
    EmptyGroupError,
    InvalidHierarchyError,
    LexbeamError,
    MalformedConfigError,
    MalformedDetectionError,
    MalformedGroupError,
    MalformedHierarchyError,
    UnknownClassError,
)
from helpers import reference_iou, reference_suppress_overlaps


def det(cls, conf, box):
    return Detection(class_name=cls, confidence=conf, box=tuple(float(v) for v in box))


@pytest.fixture(scope="module")
def hier():
    return default_hierarchy()


@pytest.fixture(scope="module")
def blacklist():
    return Blacklist.default()


# --------------------------------------------------------------------- iou


def test_iou_identical_boxes():
    assert iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0


def test_iou_disjoint_boxes():
    assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0


def test_iou_partial_overlap_by_hand():
    # intersection 1x1, union 4 + 4 - 1 = 7
    assert abs(iou((0, 0, 2, 2), (1, 1, 3, 3)) - 1 / 7) < 1e-12


def test_iou_symmetry_and_range_on_random_boxes():
    rng = random.Random(4242)
    for _ in range(2000):
        def box():
            x0, y0 = rng.uniform(0, 50), rng.uniform(0, 50)
            return (x0, y0, x0 + rng.uniform(0.1, 30), y0 + rng.uniform(0.1, 30))

        a, b = box(), box()
        ab, ba = iou(a, b), iou(b, a)
        assert ab == ba
        assert 0.0 <= ab <= 1.0


def test_iou_rejects_degenerate_boxes():
    with pytest.raises(DegenerateBoxError):
        iou((0, 0, 0, 1), (0, 0, 1, 1))
    with pytest.raises(DegenerateBoxError):
        iou((0, 0, 1, 1), (2, 2, 2, 2))


@pytest.mark.parametrize(
    "box",
    [
        (0, 0, math.inf, 1),
        (-math.inf, 0, 1, 1),
        (0, 0, 1, math.nan),
        (0, 0, 1e308, 1e308),  # width x height overflows
        (-1e308, 0, 1e308, 1),  # the width itself overflows
        (0, 0, 1e-200, 1e-200),  # the area rounds to 0
    ],
)
def test_boxes_without_a_positive_finite_area_are_degenerate(box):
    with pytest.raises(DegenerateBoxError):
        iou(box, (0, 0, 1, 1))
    with pytest.raises(DegenerateBoxError):
        det("Dog", 0.5, box)


def random_iou_box(rng, integer):
    """A box on a coarse grid (so boxes touch, nest and repeat), at a
    random float position or with integer coordinates below 2**20, whose
    products stay exact in float64."""
    if integer:
        scale = rng.choice([1, 3, 1 << 10])
        x0, y0 = rng.randint(-4, 8) * scale, rng.randint(-4, 8) * scale
        return (x0, y0, x0 + rng.randint(1, 6) * scale, y0 + rng.randint(1, 6) * scale)
    if rng.random() < 0.5:
        scale = rng.choice([0.25, 0.1, 7.5])
        x0, y0 = rng.randint(-4, 8) * scale, rng.randint(-4, 8) * scale
        return (x0, y0, x0 + rng.randint(1, 6) * scale, y0 + rng.randint(1, 6) * scale)
    x0, y0 = rng.uniform(-50, 50), rng.uniform(-50, 50)
    return (x0, y0, x0 + rng.uniform(1e-3, 40), y0 + rng.uniform(1e-3, 40))


def test_iou_is_the_scalar_formula_bit_for_bit():
    rng = random.Random(977)
    pairs = [((-1.0, 0.0, -0.0, 1.0), (0.0, 0.0, 1.0, 1.0)), ((0, 0, 1e154, 1e154), (0, 0, 9e153, 9e153))]
    for _ in range(5000):
        integer = rng.random() < 0.3
        a = random_iou_box(rng, integer)
        b = random_iou_box(rng, integer) if rng.random() < 0.8 else a
        pairs.append((a, b))
    for a, b in pairs:
        assert iou(a, b).hex() == reference_iou(a, b).hex(), (a, b)


def test_detection_validation():
    with pytest.raises(DegenerateBoxError):
        det("Dog", 0.5, (1, 1, 1, 2))
    with pytest.raises(ValueError):
        det("Dog", 1.5, (0, 0, 1, 1))


@pytest.mark.parametrize(
    "confidence, box",
    [
        ("0.5", (0, 0, 1, 1)),
        (0.5, ("0", "0", "1", "1")),
        (0.5, (0, 0, "1", 1)),
        (True, (0, 0, 1, 1)),
        (0.5, (0, 0, 1, True)),
        (None, (0, 0, 1, 1)),
        (0.5, 5),
    ],
)
def test_detection_refuses_values_that_are_not_numbers(confidence, box):
    # the constructor checks types as from_json does (was: a bare TypeError, or True taken as 1)
    with pytest.raises(MalformedDetectionError, match="detection score and box must be numbers") as info:
        Detection("Dog", confidence, box)
    assert isinstance(info.value, LexbeamError) and isinstance(info.value, TypeError)


# --------------------------------------------------------------- hierarchy


def test_hierarchy_depth_and_ancestry(hier):
    # a class's depth is the number of its strict ancestors
    classes = ("Animal", "Mammal", "Dog")
    depths = [sum(hier.is_strict_ancestor(a, c) for a in classes) for c in classes]
    assert depths == [0, 1, 2]
    assert hier.is_strict_ancestor("Mammal", "Dog")
    assert hier.is_strict_ancestor("Animal", "Dog")
    assert not hier.is_strict_ancestor("Dog", "Mammal")
    assert not hier.is_strict_ancestor("Dog", "Dog")


def test_hierarchy_is_case_insensitive(hier):
    assert "dog" in hier
    assert hier.word_forms("DOG") == ((("dog",), ("dogs",)))
    with pytest.raises(UnknownClassError):
        hier.is_strict_ancestor("Wombat", "Dog")
    with pytest.raises(UnknownClassError):
        hier.word_forms("Wombat")


def test_hierarchy_rejects_cycles_and_dangling_parents():
    with pytest.raises(ValueError):
        ClassHierarchy(
            [
                {"class": "A", "parent": "B", "forms": [["a"]]},
                {"class": "B", "parent": "A", "forms": [["b"]]},
            ]
        )
    with pytest.raises(UnknownClassError):
        ClassHierarchy([{"class": "A", "parent": "Ghost", "forms": [["a"]]}])
    with pytest.raises(EmptyGroupError):
        ClassHierarchy([{"class": "A", "parent": None, "forms": []}])
    with pytest.raises(EmptyGroupError):
        ClassHierarchy([{"class": "A", "parent": None}])


@pytest.mark.parametrize(
    "records, error",
    [
        ({"class": "Dog", "forms": [["dog"]]}, MalformedHierarchyError),
        (5, MalformedHierarchyError),
        ([[1]], MalformedHierarchyError),
        (["Dog"], MalformedHierarchyError),
        ([{"forms": [["dog"]]}], MalformedHierarchyError),
        ([{"class": 5, "forms": [["dog"]]}], MalformedHierarchyError),
        ([{"class": "Dog", "forms": [["dog"]]}, {"class": "DOG", "forms": [["dogs"]]}], InvalidHierarchyError),
        ([{"class": "A", "parent": "a", "forms": [["a"]]}], InvalidHierarchyError),
    ],
)
def test_hierarchy_structure_errors_are_typed(records, error):
    with pytest.raises(error):
        ClassHierarchy(records)


@pytest.mark.parametrize("forms", [["dog"], [[1]], "dog", [["dog"], "dogs"], 5])
def test_hierarchy_forms_must_be_lists_of_token_strings(forms):
    # a string form would be iterated as one-letter tokens
    with pytest.raises(MalformedGroupError):
        ClassHierarchy([{"class": "Dog", "parent": None, "forms": forms}])


def test_hierarchy_rejects_a_self_parented_class():
    with pytest.raises(ValueError, match="cycle"):
        ClassHierarchy([{"class": "A", "parent": "a", "forms": [["a"]]}])
    with pytest.raises(ValueError, match="cycle"):
        ClassHierarchy(
            [{"class": "Root", "parent": None, "forms": [["r"]]}, {"class": "B", "parent": "B", "forms": [["b"]]}]
        )


def test_hierarchy_accepts_a_chain_as_deep_as_the_class_count():
    # the parent walk is bounded by the class count; the deepest class
    # of a single chain sits exactly class count - 1 steps below the root
    n = 600
    chain = ClassHierarchy(
        [{"class": f"c{i}", "parent": f"c{i - 1}" if i else None, "forms": [[f"w{i}"]]} for i in range(n)]
    )
    assert all(chain.is_strict_ancestor(f"c{i}", f"c{n - 1}") for i in range(n - 1))
    assert not chain.is_strict_ancestor(f"c{n - 1}", "c0")
    assert chain.word_forms(f"C{n - 1}") == ((f"w{n - 1}",),)


def test_word_forms_are_deduplicated_in_order():
    hier = ClassHierarchy([{"class": "Dog", "forms": [["dogs"], ["dog"], ["dogs"]]}])
    assert hier.word_forms("dog") == (("dogs",), ("dog",))


def test_default_blacklist_has_39_classes(blacklist):
    assert len(blacklist) == 39
    assert "Human Eye" in blacklist
    assert "Human eye" in blacklist  # case-insensitive match
    assert "Mammal" in blacklist
    assert "Dog" not in blacklist


def test_shipped_data_is_read_as_utf8_whatever_the_locale():
    # a text read with no encoding follows the locale and warns under
    # -X warn_default_encoding, which the -W flag makes an error
    script = "from lexbeam import Blacklist, default_hierarchy; Blacklist.default(); default_hierarchy()"
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-c", script],
        env={**os.environ, "PYTHONPATH": str(Path(lexbeam.__file__).resolve().parents[1])},
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


# -------------------------------------------------------------- suppression


def test_suppress_overlaps_trivial_cases(hier):
    assert suppress_overlaps([], hier) == []
    single = [det("Dog", 0.9, (0, 0, 10, 10))]
    assert suppress_overlaps(single, hier) == single


def test_ancestor_suppressed_on_full_overlap(hier):
    dog = det("Dog", 0.9, (0, 0, 10, 10))
    mammal = det("Mammal", 0.95, (0, 0, 10, 10))
    assert suppress_overlaps([dog, mammal], hier) == [dog]
    assert suppress_overlaps([mammal, dog], hier) == [dog]


def test_overlap_below_threshold_keeps_both(hier):
    dog = det("Dog", 0.9, (0, 0, 10, 10))
    mammal = det("Mammal", 0.95, (8, 8, 18, 18))
    assert suppress_overlaps([dog, mammal], hier) == [dog, mammal]


def test_unrelated_classes_overlapping_are_kept(hier):
    dog = det("Dog", 0.9, (0, 0, 10, 10))
    cat = det("Cat", 0.8, (0, 0, 10, 10))
    assert suppress_overlaps([dog, cat], hier) == [dog, cat]


def test_chain_of_ancestors_leaves_only_the_deepest(hier):
    box = (0, 0, 10, 10)
    dets = [
        det("Animal", 0.99, box),
        det("Mammal", 0.95, box),
        det("Dog", 0.60, box),
    ]
    assert suppress_overlaps(dets, hier) == [dets[2]]


def test_no_qualifying_pair_survives_suppression(hier):
    # closure property: after suppression, no remaining pair both
    # overlaps at/above the threshold and has a strict ancestor relation
    rng = random.Random(2020)
    classes = ["Animal", "Mammal", "Dog", "Cat", "Vehicle", "Car", "Truck", "Table"]
    for _ in range(30):
        dets = []
        for _ in range(rng.randint(0, 8)):
            x = rng.uniform(0, 30)
            y = rng.uniform(0, 30)
            dets.append(
                det(
                    rng.choice(classes),
                    round(rng.uniform(0.05, 0.99), 3),
                    (x, y, x + rng.uniform(5, 20), y + rng.uniform(5, 20)),
                )
            )
        kept = suppress_overlaps(dets, hier, iou_threshold=0.5)
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                a, b = kept[i], kept[j]
                if iou(a.box, b.box) >= 0.5:
                    assert not hier.is_strict_ancestor(a.class_name, b.class_name)
                    assert not hier.is_strict_ancestor(b.class_name, a.class_name)


def test_iou_exactly_at_the_threshold_suppresses(hier):
    # 17 x 1 inside 20 x 1: the IoU is 17 / 20, the float 0.85 itself
    dog = det("Dog", 0.9, (0, 0, 17, 1))
    mammal = det("Mammal", 0.95, (0, 0, 20, 1))
    assert iou(dog.box, mammal.box) == 0.85
    assert suppress_overlaps([mammal, dog], hier, iou_threshold=0.85) == [dog]
    assert suppress_overlaps([mammal, dog], hier, iou_threshold=1.0) == [mammal, dog]
    twin = det("Mammal", 0.95, (0, 0, 17, 1))
    assert suppress_overlaps([twin, dog], hier, iou_threshold=1.0) == [dog]


def test_touching_boxes_do_not_overlap(hier):
    dog = det("Dog", 0.9, (0, 0, 1, 1))
    mammal = det("Mammal", 0.95, (1, 0, 2, 1))
    assert iou(dog.box, mammal.box) == 0.0
    assert suppress_overlaps([dog, mammal], hier, iou_threshold=1e-12) == [dog, mammal]
    assert suppress_overlaps([dog, mammal], hier, iou_threshold=0.0) == [dog]


DIFFERENTIAL_CLASSES = [
    "Animal", "Mammal", "Dog", "Cat", "Bird",
    "Vehicle", "Land vehicle", "Car", "Truck",
    "Person", "Man", "Table", "Wombat",
]


def random_detection_record(rng):
    """Up to 60 detections over ancestor chains (plus a class missing
    from the hierarchy), with boxes that repeat an earlier box (IoU 1),
    come as a 20 x h box and a 17 x h box inside it (IoU exactly
    17 / 20, the float 0.85), touch an earlier box edge to edge
    (intersection 0), or are fresh; confidences come from a small set,
    so equal IoUs are broken by confidence. Returns the detections and
    a threshold of 0, 0.85, 1 or a random one."""
    integer = rng.random() < 0.3
    boxes = []
    for _ in range(rng.randint(0, 60) if rng.random() < 0.25 else rng.randint(0, 10)):
        kind = rng.random() if boxes else 1.0
        if kind < 0.2:
            boxes.append(rng.choice(boxes))
        elif kind < 0.35:
            unit = rng.choice([1, 3] if integer else [0.25, 1.0, 4.0])
            x0, y0, _, y1 = random_iou_box(rng, integer)
            boxes += [(x0, y0, x0 + 20 * unit, y1), (x0, y0, x0 + 17 * unit, y1)][: rng.randint(1, 2)]
        elif kind < 0.45:
            x0, y0, x1, y1 = rng.choice(boxes)
            boxes.append((x1, y0, x1 + (x1 - x0), y1))
        else:
            boxes.append(random_iou_box(rng, integer))
    rng.shuffle(boxes)
    dets = [Detection(rng.choice(DIFFERENTIAL_CLASSES), rng.choice([0.5, 0.7, 0.9]), box) for box in boxes]
    return dets, rng.choice([0.0, 0.85, 0.85, 1.0, rng.random()])


def test_suppress_overlaps_matches_the_per_pair_reference(hier, caplog):
    rng = random.Random(31337)
    removed = at_threshold = 0
    with caplog.at_level(logging.ERROR, logger="lexbeam.filtering"):  # unknown-class warnings are expected
        for _ in range(2000):
            dets, threshold = random_detection_record(rng)
            kept = suppress_overlaps(dets, hier, iou_threshold=threshold)
            expected = reference_suppress_overlaps(dets, hier, threshold)
            assert list(map(id, kept)) == list(map(id, expected)), (dets, threshold)
            removed += sum(d.class_name in hier for d in dets) - len(kept)
            at_threshold += any(
                reference_iou(a.box, b.box) == threshold > 0 for a in dets for b in dets if a is not b
            )
    assert removed > 1000 and at_threshold > 200  # the records do exercise suppression and the threshold edge


def test_unknown_class_is_dropped_with_warning(hier, caplog):
    dets = [det("Wombat", 0.9, (0, 0, 1, 1)), det("Dog", 0.8, (5, 5, 6, 6))]
    with caplog.at_level(logging.WARNING, logger="lexbeam.filtering"):
        kept = suppress_overlaps(dets, hier)
    assert [d.class_name for d in kept] == ["Dog"]
    assert any("Wombat" in rec.message for rec in caplog.records)


# ----------------------------------------------------------------- pipeline


def test_dog_suppresses_mammal_then_expands_word_forms(hier, blacklist):
    box = (0, 0, 10, 10)
    dets = [det("Dog", 0.9, box), det("Mammal", 0.95, box)]
    groups = filter_constraints(dets, hier, blacklist, mode=FilterMode.NO_CLASS)
    assert len(groups) == 1
    assert groups[0].label == "Dog"
    assert groups[0].alternatives == (("dog",), ("dogs",))


def test_blacklisted_part_never_survives_full_mode(hier, blacklist):
    dets = [det("Human eye", 0.99, (0, 0, 5, 5))]
    assert filter_constraints(dets, hier, blacklist, mode=FilterMode.FULL) == []
    assert filter_constraints(dets, hier, blacklist, mode=FilterMode.NO_OVERLAP) == []


def test_top_k_cut_by_confidence(hier, blacklist):
    dets = [
        det("Dog", 0.9, (0, 0, 1, 1)),
        det("Cat", 0.8, (2, 2, 3, 3)),
        det("Car", 0.7, (4, 4, 5, 5)),
        det("Table", 0.6, (6, 6, 7, 7)),
        det("Chair", 0.5, (8, 8, 9, 9)),
    ]
    groups = filter_constraints(dets, hier, blacklist)
    assert [g.label for g in groups] == ["Dog", "Cat", "Car"]
    top2 = filter_constraints(dets, hier, blacklist, top_k=2)
    assert [g.label for g in top2] == ["Dog", "Cat"]


def test_repeated_class_collapses_to_best_confidence(hier, blacklist):
    dets = [
        det("Dog", 0.4, (0, 0, 1, 1)),
        det("Cat", 0.6, (2, 2, 3, 3)),
        det("Dog", 0.8, (4, 4, 5, 5)),
        det("Table", 0.5, (6, 6, 7, 7)),
    ]
    groups = filter_constraints(dets, hier, blacklist)
    assert [g.label for g in groups] == ["Dog", "Cat", "Table"]


def test_mode_none_ranks_raw_detections(hier, blacklist):
    box = (0, 0, 10, 10)
    dets = [
        det("Mammal", 0.95, box),   # blacklisted and an ancestor, kept anyway
        det("Dog", 0.9, box),
        det("Cat", 0.2, (20, 20, 30, 30)),
    ]
    groups = filter_constraints(dets, hier, blacklist, mode=FilterMode.NONE)
    assert [g.label for g in groups] == ["Mammal", "Dog", "Cat"]


def test_output_limits_and_distinctness(hier, blacklist):
    rng = random.Random(7)
    classes = ["Dog", "Cat", "Car", "Table", "Chair", "Camel", "Horse"]
    for mode in FilterMode:
        dets = []
        for i in range(12):
            x = float(i * 20)
            dets.append(
                det(rng.choice(classes), rng.uniform(0.1, 0.99), (x, 0, x + 10, 10))
            )
        groups = filter_constraints(dets, hier, blacklist, mode=mode)
        labels = [g.label for g in groups]
        assert len(groups) <= 3
        assert len(set(labels)) == len(labels)


def test_multi_word_forms_become_phrase_alternatives(hier, blacklist):
    dets = [det("Red panda", 0.9, (0, 0, 10, 10))]
    groups = filter_constraints(dets, hier, blacklist)
    assert groups[0].alternatives == (("red", "panda"), ("red", "pandas"))


def test_top_k_validation(hier, blacklist):
    dets = [det("Dog", 0.9, (0, 0, 1, 1))]
    assert filter_constraints(dets, hier, blacklist, top_k=0) == []
    with pytest.raises(ValueError):
        filter_constraints(dets, hier, blacklist, top_k=-1)


@pytest.mark.parametrize("mode", list(FilterMode))
def test_iou_threshold_validation(hier, blacklist, mode):
    dets = [det("Dog", 0.9, (0, 0, 1, 1)), det("Mammal", 0.8, (5, 5, 6, 6))]
    for threshold in (0, 0.0, 0.5, 1, 1.0):
        filter_constraints(dets, hier, blacklist, mode, iou_threshold=threshold)
    for threshold in (math.nan, -1.0, -1e-12, 1.0 + 1e-12, math.inf):
        with pytest.raises(ValueError, match="iou_threshold"):
            filter_constraints(dets, hier, blacklist, mode, iou_threshold=threshold)
        with pytest.raises(ValueError, match="iou_threshold"):
            suppress_overlaps(dets, hier, iou_threshold=threshold)


@pytest.mark.parametrize(
    "field, value",
    [("top_k", 1.5), ("top_k", "2"), ("top_k", True), ("top_k", None),
     ("iou_threshold", "x"), ("iou_threshold", True), ("iou_threshold", None)],
)
def test_filter_refuses_options_of_the_wrong_type(hier, blacklist, field, value):
    dets = [det("Dog", 0.9, (0, 0, 1, 1)), det("Mammal", 0.8, (0, 0, 1, 1))]
    noun = "an int" if field == "top_k" else "a number"
    message = f"{field} must be {noun}, got {re.escape(repr(value))}"
    with pytest.raises(MalformedConfigError, match=message) as info:
        filter_constraints(dets, hier, blacklist, **{field: value})
    assert isinstance(info.value, LexbeamError) and isinstance(info.value, TypeError)
    if field == "iou_threshold":
        with pytest.raises(MalformedConfigError, match=message):
            suppress_overlaps(dets, hier, iou_threshold=value)


def test_detection_record_schema():
    d = Detection.from_json({"class": "Dog", "score": 0.93, "box": [1, 2, 3, 4]})
    assert d.class_name == "Dog"
    assert d.confidence == 0.93
    assert d.box == (1.0, 2.0, 3.0, 4.0)


@pytest.mark.parametrize(
    "obj",
    [
        {"class": "Dog", "score": 0.93},
        {"class": "Dog", "box": [1, 2, 3, 4]},
        {"score": 0.93, "box": [1, 2, 3, 4]},
        {"class": "Dog", "score": None, "box": [1, 2, 3, 4]},
        {"class": "Dog", "score": True, "box": [1, 2, 3, 4]},
        {"class": "Dog", "score": 0.93, "box": [1, 2, None, 4]},
        {"class": "Dog", "score": 0.93, "box": "1234"},
        {"class": "Dog", "score": 0.93, "box": [0, 0, 10**400, 1]},
        {"class": "Dog", "score": 10**400, "box": [0, 0, 1, 1]},
        "Dog",
    ],
)
def test_malformed_detection_records_raise_a_typed_error(obj):
    with pytest.raises(MalformedDetectionError) as info:
        Detection.from_json(obj)
    assert isinstance(info.value, LexbeamError) and isinstance(info.value, TypeError)
