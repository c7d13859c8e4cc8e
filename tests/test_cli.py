"""End-to-end CLI behavior: exit codes, JSON-lines formats, golden
outputs, shell pipelining and manifest determinism.

``helpers.GOLDEN_RUNS`` is the one list of golden CLI runs, with how
each golden was frozen; the tests below run each row in-process and
check that every ``tests/data/golden_*`` file has a row. CI also runs
this module against the installed package from outside the checkout,
where ``lexbeam`` and its shipped hierarchy and blacklist resolve to the
installed copy.

``ERROR_RUNS`` below is the one list of runs that must exit 1, the
input-error contract: exit code 1, on stdout only the records printed
before the bad one, and on stderr exactly one JSON line with ``error``
(the typed error's name) and ``message``, plus ``line`` exactly when
the error belongs to a record. One body checks every row. Every typed
error in ``lexbeam.errors`` that the CLI can raise has a row, and a
test fails when one has none; the few that the CLI cannot raise are
named there with the reason.
"""

import io
import json
import os
import random
import subprocess
import sys
from typing import NamedTuple

import pytest

from lexbeam import BigramModel, Vocabulary, errors
from lexbeam.cli import build_parser, main

from helpers import DATA, GOLDEN_RUNS, write_model


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def scorer_file(tmp_path):
    vocab = Vocabulary(sorted({"a", "dog", "dogs", "park", "the", "in", "ran"}))
    corpus = [
        "the dog ran in the park",
        "a dog in the park",
        "the dog ran",
        "dogs ran in the park",
    ]
    model = BigramModel.fit(corpus, alpha=0.5, vocab=vocab)
    path = tmp_path / "scorer.json"
    write_model(model, path)
    return str(path)


def constraints_line(*labels, min_satisfied=None, image_id=None):
    obj = {
        "groups": [
            {"label": lab, "alternatives": [[lab]]} for lab in labels
        ]
    }
    if min_satisfied is not None:
        obj["min_satisfied"] = min_satisfied
    if image_id is not None:
        obj["image_id"] = image_id
    return json.dumps(obj)


def jsonl(*records):
    return "".join(json.dumps(record) + "\n" for record in records)


def _images():
    rng = random.Random(5150)
    pool = ["person", "car", "dog", "tree", "boat", "bird", "chair", "lamp"]
    records = []
    for i in range(30):
        n = rng.randint(1, 8)
        rotation = rng.choice(["zero", "zero", "zero", "nonzero", "unknown"])
        records.append({"image_id": f"im{i:03d}", "classes": sorted(rng.sample(pool, n)), "rotation": rotation})
    return jsonl(*records)


IMAGES = _images()


# -------------------------------------------------------------- exit codes


def test_help_exits_zero(run):
    code, out, err = run("decode", "--help")
    assert code == 0


def test_version_flag(run):
    code, out, err = run("--version")
    assert code == 0


# ------------------------------------------------------------ golden runs


def golden_test(command):
    """The golden test over ``command``'s rows of ``GOLDEN_RUNS``: the
    run prints its golden byte for byte and nothing on stderr. One per
    subcommand, so that each run keeps its test id."""
    ids, rows = zip(*[(id_, (golden, argv)) for id_, golden, argv in GOLDEN_RUNS if argv[0] == command])

    @pytest.mark.parametrize("golden, argv", rows, ids=ids)
    def test(run, tmp_path, golden, argv):
        code, out, err = run(*(str(arg(tmp_path) if callable(arg) else arg) for arg in argv))
        assert (code, err) == (0, "")
        assert out == (DATA / golden).read_text()

    return test


test_filter_matches_golden_output = golden_test("filter")
test_decode_stdout_matches_frozen_golden = golden_test("decode")
test_inspect_fsm_stdout_matches_frozen_golden = golden_test("inspect-fsm")
test_sample_stdout_matches_frozen_golden = golden_test("sample")
test_stats_stdout_matches_frozen_golden = golden_test("stats")


def test_every_golden_file_has_a_run_and_every_run_a_golden_file():
    # a golden with no row would never be checked; the reversed model's
    # row shares the default decode golden, so ids, not files, are unique
    assert {golden for _, golden, _ in GOLDEN_RUNS} == {path.name for path in DATA.glob("golden_*")}
    assert len({(argv[0], id_) for id_, _, argv in GOLDEN_RUNS}) == len(GOLDEN_RUNS)


# ------------------------------------------------------------ input errors


class ErrorRun(NamedTuple):
    """One CLI run that must exit 1 with one typed error.

    ``id`` is the test id the run is checked under. ``argv`` is a
    template over ``{d}`` (the test's tmp dir, where ``files`` are
    written first, as text or bytes), ``{scorer}`` (the fixture model)
    and ``{data}`` (``tests/data``). ``kind`` is the error's name and
    ``line`` the record line it carries, None when it names no record.
    ``printed`` holds one dict per record on stdout, each a subset of
    that record; ``message``, when given, is the exact message."""

    id: str
    argv: str
    files: dict
    kind: str
    line: int | None = None
    printed: tuple = ()
    message: str | None = None


def _param(name, index, value):
    """The id pytest gives the ``index``-th value of parameter ``name``,
    so that a row keeps the id it had as a parametrized test."""
    return str(value) if value is None or isinstance(value, (str, int, float)) else f"{name}{index}"


DECODE = "decode --scorer {scorer} --constraints {d}/c.jsonl"
MODEL = "decode --scorer {d}/m.json --constraints {d}/c.jsonl"
INSPECT = "inspect-fsm --constraints {d}/c.json --vocab {d}/v.json"
FILTER = "filter --detections {d}/d.jsonl"
HIERARCHY = "filter --hierarchy {d}/h.json --detections {d}/d.jsonl"
SAMPLE_FLAGS = "sample --target 1 --candidates 1 --seed 0 --images"
SAMPLE = SAMPLE_FLAGS + " {d}/i.jsonl"
DOG = {"class": "Dog", "score": 0.9, "box": [0, 0, 1, 1]}
# captions whose second line holds a Latin-1 byte, not UTF-8
NON_UTF8 = b'{"caption": "a dog"}\n{"caption": "caf\xe9"}\n'
# JSON nested deeper than the decoder recurses
DEEP = "[" * 100_000 + "]" * 100_000


def inspect_files(groups, vocab, min_satisfied=1):
    return {"c.json": json.dumps({"min_satisfied": min_satisfied, "groups": groups}), "v.json": json.dumps(vocab)}


def hierarchy_files(hierarchy):
    return {"h.json": json.dumps(hierarchy), "d.jsonl": jsonl({"detections": [{**DOG, "class": "dog"}]})}


NON_GROUPS = [
    {"min_satisfied": 1, "groups": [{"label": "g", "alternatives": 5}]},
    {"min_satisfied": 1, "groups": [5]},
    {"min_satisfied": 1, "groups": [{"label": "g", "alternatives": [[["dog"]]]}]},
]
QUOTA_BELOW_ZERO = "min_satisfied must be non-negative, got -2"

# files of the bad-value rows, whose test ids name them
BAD_VALUE_FILES = {
    "two.jsonl": constraints_line("dog", "park") + "\n",
    "quota.json": constraints_line("dog", "park", min_satisfied=9),
    "vocab.json": json.dumps(["dog", "park"]),
    "twice.json": json.dumps(["dog", "park", "dog"]),
    "twice-model.json": json.dumps({"alpha": 1.0, "vocab": ["dog", "dog"], "counts": []}),
    "negative-model.json": json.dumps({"alpha": 1.0, "vocab": ["dog", "park"], "counts": [[2, 3, -1]]}),
    "detections.jsonl": jsonl({"detections": [{**DOG, "score": 1.5}]}),
    **{f"box{n}.jsonl": "\n" + jsonl({"detections": [{**DOG, "box": [0] * (n - 2) + [1, 1]}]}) for n in (3, 5)},
    # 16 groups of one 40-token phrase: 20.5M states, refused before any is built
    "huge.json": json.dumps({"groups": [{"alternatives": [[f"t{40 * g + i}" for i in range(40)]]} for g in range(16)]}),
    "huge-vocab.json": json.dumps([f"t{i}" for i in range(640)]),
}

ERROR_RUNS = [
    # ---- usage, unreadable files and the manifest
    # fails on the missing --scorer before it reaches --bogus; the new
    # row "usage-unrecognized-flag" reaches it
    ErrorRun("test_unknown_flag_exits_one_with_json_error", "decode --bogus", {}, "usage",
             message="the following arguments are required: --scorer"),
    ErrorRun("test_input_error_exits_one[usage-unrecognized-flag]", "decode --scorer {scorer} --bogus", {}, "usage",
             message="unrecognized arguments: --bogus"),
    ErrorRun("test_unknown_subcommand_exits_one", "frobnicate", {}, "usage"),
    ErrorRun("test_sample_requires_seed", "sample --images {d}/i.jsonl --target 5 --candidates 3", {"i.jsonl": IMAGES}, "usage"),
    ErrorRun("test_missing_input_file_exits_one", "stats --captions {d}/nope.jsonl", {}, "FileNotFoundError"),
    # each line is decoded after it is numbered (was: the first block, with no line)
    ErrorRun("test_non_utf8_input_is_an_input_error", "stats --captions {d}/c.jsonl",
             {"c.jsonl": NON_UTF8}, "UnicodeDecodeError", 2),
    # a record ends at \n only; the \r of a \r\n is stripped, a lone \r is inside the line
    ErrorRun("test_input_error_exits_one[stats-lone-carriage-return]", "stats --captions {d}/c.jsonl",
             {"c.jsonl": b'{"caption": "a b"}\r\n{"caption": "c"}\r{"caption": "d"}\n'}, "JSONDecodeError", 2),
    # the decoder's RecursionError exited 2 as an internal error
    ErrorRun("test_input_error_exits_one[stats-deeply-nested-record]", "stats --captions {d}/c.jsonl",
             {"c.jsonl": jsonl({"caption": "a b"}) + DEEP + "\n"}, "JSONDecodeError", 2,
             message="nesting too deep: line 1 column 1 (char 0)"),
    ErrorRun("test_input_error_exits_one[decode-deeply-nested-model]", MODEL,
             {"m.json": f'{{"alpha": 1.0, "vocab": {DEEP}, "counts": []}}', "c.jsonl": ""}, "JSONDecodeError",
             message="nesting too deep: line 1 column 1 (char 0)"),
    # checked before any input is read (was: after the whole run had printed its output)
    ErrorRun("test_an_unwritable_manifest_is_an_input_error", "--manifest {d}/missing/m.json stats --captions {d}/c.jsonl",
             {"c.jsonl": jsonl({"caption": "a b"})}, "FileNotFoundError"),
    ErrorRun("test_input_error_exits_one[decode-manifest-directory-missing]", "--manifest {d}/missing/m.json " + DECODE,
             {"c.jsonl": constraints_line("dog", "park") + "\n"}, "FileNotFoundError"),
    # ---- flags, refused before any record is read
    *(
        ErrorRun(f"test_flag_errors_carry_no_line_and_precede_reading[{records}-argv{i}-{message}]",
                 argv + " {d}/r.jsonl", {"r.jsonl": records}, kind, message=message)
        for records in ("", "{}\n")
        for i, (argv, kind, message) in enumerate([
            ("decode --beam-width 0 --scorer {scorer} --constraints", "NonPositiveCountError", "beam_width must be >= 1"),
            ("decode --max-len 0 --scorer {scorer} --constraints", "NonPositiveCountError", "max_len must be >= 1"),
            ("filter --top-k -1 --detections", "FilterOptionError", "top_k must be non-negative, got -1"),
            ("filter --mode no-class --iou-threshold nan --detections", "FilterOptionError",
             "iou_threshold must lie in [0, 1], got nan"),
            ("filter --mode no-overlap --iou-threshold -1 --detections", "FilterOptionError",
             "iou_threshold must lie in [0, 1], got -1.0"),
        ])
    ),
    # checked per record by the compiler, it exited 0 on an empty file and blamed line 1 on a one-record file
    *(
        ErrorRun(f"test_decode_rejects_a_negative_min_satisfied_before_reading[{id_}]",
                 "decode --scorer {scorer} --min-satisfied -2 --constraints {d}/c.jsonl", {"c.jsonl": records},
                 "QuotaRangeError", message=QUOTA_BELOW_ZERO)
        for id_, records in [("empty", ""), ("one-record", constraints_line("dog", "park") + "\n")]
    ),
    *(
        ErrorRun(f"test_filter_rejects_a_negative_min_satisfied_before_reading[{records}]",
                 "filter --min-satisfied -2 --detections {d}/d.jsonl", {"d.jsonl": records}, "QuotaRangeError",
                 message=QUOTA_BELOW_ZERO)
        for records in ("", "{}\n")
    ),
    ErrorRun("test_stats_rejects_a_nonpositive_n_max", "stats --captions {d}/c.jsonl --n-max 0",
             {"c.jsonl": jsonl({"caption": "a dog"})}, "NonPositiveCountError", message="n_max must be >= 1"),
    # one key per n: 10**9 built a dict of 10**9 keys
    ErrorRun("test_stats_rejects_an_n_max_past_the_bound", "stats --captions {d}/c.jsonl --n-max 1000000000",
             {"c.jsonl": jsonl({"caption": "a dog"})}, "NGramOrderError", message="n_max must be <= 1048576, got 1000000000"),
    # the candidate count is checked after every image is read
    ErrorRun("test_errors_outside_any_record_carry_no_line", "sample --images {d}/i.jsonl --target 3 --candidates 0 --seed 0",
             {"i.jsonl": IMAGES}, "NonPositiveCountError", message="n_candidates must be >= 1"),
    ErrorRun("test_input_error_exits_one[sample-no-eligible-image]", SAMPLE,
             {"i.jsonl": jsonl({"image_id": "a", "classes": ["dog"]})}, "EmptyPoolsError",
             message="no eligible images to sample from"),
    ErrorRun("test_input_error_exits_one[sample-target-below-auto-include]", "sample --target 0 --candidates 1 --seed 0 --images {d}/i.jsonl",
             {"i.jsonl": jsonl({"image_id": "a", "classes": list("abcdefg")})}, "TargetTooSmallError",
             message="target 0 below auto-include size 1"),
    # ---- model files: errors that name no record
    *(
        ErrorRun(f"test_decode_rejects_malformed_model_files[model{i}]", MODEL,
                 {"m.json": json.dumps(model), "c.jsonl": constraints_line("a") + "\n"}, "MalformedModelError")
        for i, model in enumerate([
            [1, 2],
            {"alpha": 1.0, "vocab": ["a"]},
            {"alpha": 1.0, "vocab": ["a"], "counts": 5},
            {"alpha": 1.0, "vocab": ["a"], "counts": [[0, 2]]},
            {"alpha": 1.0, "vocab": ["a"], "counts": [[0, 2, None]]},
            {"alpha": 1.0, "vocab": ["a"], "counts": [[0, 2, float("inf")]]},
            {"alpha": None, "vocab": ["a"], "counts": []},
            {"alpha": 1.0, "vocab": "ab", "counts": []},
        ])
    ),
    ErrorRun("test_input_error_exits_one[decode-model-pair-out-of-range]", "decode --scorer {d}/m.json --constraints {d}/m.json",
             {"m.json": json.dumps({"alpha": 1.0, "vocab": ["a"], "counts": [[0, 9, 1]]})}, "UnknownTokenError",
             message="count pair (0, 9) out of range"),
    ErrorRun("test_input_error_exits_one[decode-model-alpha-0]", MODEL,
             {"m.json": json.dumps({"alpha": 0, "vocab": ["a"], "counts": []}), "c.jsonl": ""}, "NonPositiveAlphaError",
             message="alpha must be > 0, got 0.0"),
    # a JSON integer past the float range exited 2 (OverflowError); true and "1.5" were read as 1.0 and 1.5
    ErrorRun("test_input_error_exits_one[decode-model-alpha-past-float]", MODEL,
             {"m.json": '{"alpha": 1' + "0" * 399 + ', "vocab": ["a"], "counts": []}', "c.jsonl": ""},
             "MalformedModelError", message="model alpha must fit a float, got 1" + "0" * 39),
    *(
        ErrorRun(f"test_input_error_exits_one[decode-model-alpha-{id_}]", MODEL,
                 {"m.json": json.dumps({"alpha": alpha, "vocab": ["a"], "counts": []}), "c.jsonl": ""},
                 "MalformedModelError", message=f"model alpha must be a number, got {alpha!r}")
        for id_, alpha in [("true", True), ("string", "1.5")]
    ),
    # ---- hierarchy files: errors that name no record
    *(
        ErrorRun(f"test_filter_rejects_malformed_hierarchy_files[hierarchy{i}]", HIERARCHY, hierarchy_files(hierarchy),
                 "MalformedHierarchyError")
        for i, hierarchy in enumerate([{"class": "dog", "forms": [["dog"]]}, [[1]], [{"forms": [["dog"]]}]])
    ),
    *(
        ErrorRun(f"test_filter_rejects_hierarchy_forms_that_are_not_lists_of_strings[{_param('forms', i, forms)}]",
                 HIERARCHY, hierarchy_files([{"class": "dog", "forms": forms}]), "MalformedGroupError")
        for i, forms in enumerate([["dog"], [[1]], "dog"])
    ),
    ErrorRun("test_input_error_exits_one[filter-hierarchy-class-without-forms]", HIERARCHY,
             hierarchy_files([{"class": "dog"}]), "EmptyGroupError", message="group 'dog' has no alternatives, or an empty one"),
    ErrorRun("test_input_error_exits_one[filter-hierarchy-duplicate-class]", HIERARCHY,
             hierarchy_files([{"class": "dog", "forms": [["dog"]]}, {"class": "Dog", "forms": [["dogs"]]}]),
             "InvalidHierarchyError", message="duplicate class 'Dog'"),
    ErrorRun("test_input_error_exits_one[filter-hierarchy-parent-cycle]", HIERARCHY,
             hierarchy_files([{"class": "dog", "parent": "cat", "forms": [["dog"]]}, {"class": "cat", "parent": "dog", "forms": [["cat"]]}]),
             "InvalidHierarchyError", message="hierarchy cycle through 'dog'"),
    ErrorRun("test_input_error_exits_one[filter-hierarchy-undefined-parent]", HIERARCHY,
             hierarchy_files([{"class": "dog", "parent": "animal", "forms": [["dog"]]}]), "UnknownClassError",
             message="parent 'animal' of 'dog' not defined"),
    # ---- inspect-fsm: its constraint and vocabulary files are not records
    ErrorRun("test_inspect_fsm_propagates_compile_errors", INSPECT,
             inspect_files([{"label": "z", "alternatives": [["zebra"]]}], ["a", "b"]), "UnknownTokenError"),
    # a string would be iterated as one-letter tokens that happen to resolve
    *(
        ErrorRun(f"test_inspect_fsm_rejects_string_alternatives[{_param('alternatives', i, alternatives)}]", INSPECT,
                 inspect_files([{"label": "dog", "alternatives": alternatives}], ["d", "o", "g", "dog"]), "MalformedGroupError")
        for i, alternatives in enumerate(["dog", ["dog"]])
    ),
    *(
        ErrorRun(f"test_inspect_fsm_rejects_a_vocabulary_that_is_not_a_list_of_strings[{_param('words', i, words)}]", INSPECT,
                 inspect_files([{"label": "a", "alternatives": [["a"]]}], words), "MalformedVocabularyError")
        for i, words in enumerate(["abc", 5, ["a", 1], {"a": 1}, None])
    ),
    *(
        ErrorRun(f"test_non_list_and_non_object_groups_are_input_errors[record{i}]", INSPECT,
                 {"c.json": json.dumps(record), "v.json": json.dumps(["dog"])}, "MalformedGroupError")
        for i, record in enumerate(NON_GROUPS)
    ),
    # ---- bad values: each once exited 1 as a bare ValueError, a type that a bug raises too
    *(
        ErrorRun(f"test_bad_values_are_typed_input_errors[{argv}-{kind}-{line}]", argv, BAD_VALUE_FILES, kind, line)
        for argv, kind, line in [
            ("decode --scorer {scorer} --constraints {d}/two.jsonl --min-satisfied 9", "QuotaRangeError", 1),
            ("inspect-fsm --constraints {d}/quota.json --vocab {d}/vocab.json", "QuotaRangeError", None),
            ("filter --detections {d}/detections.jsonl", "ConfidenceRangeError", 1),
            ("filter --detections {d}/box3.jsonl", "DegenerateBoxError", 2),
            ("filter --detections {d}/box5.jsonl", "DegenerateBoxError", 2),
            ("inspect-fsm --constraints {d}/quota.json --vocab {d}/twice.json", "DuplicateTokenError", None),
            ("decode --scorer {d}/twice-model.json --constraints {d}/two.jsonl", "DuplicateTokenError", None),
            ("decode --scorer {d}/negative-model.json --constraints {d}/two.jsonl", "NegativeBigramCountError", None),
            ("inspect-fsm --constraints {d}/huge.json --vocab {d}/huge-vocab.json", "FSMTooLargeError", None),
        ]
    ),
    # ---- decode records
    ErrorRun("test_decode_rejects_unsatisfiable_quota_record", DECODE,
             {"c.jsonl": jsonl({"min_satisfied": 1, "groups": []})}, "QuotaRangeError", 1),
    # max-len 1 cannot fit two constraint words; with fallback off the record is an input error
    ErrorRun("test_input_error_exits_one[decode-max-len-1-fallback-off]", DECODE + " --max-len 1 --fallback off",
             {"c.jsonl": constraints_line("dog", "park") + "\n"}, "NoHypothesisError", 1),
    # the start sentinel has probability zero, so no caption with a finite logprob satisfies this record
    ErrorRun("test_input_error_exits_one[decode-zero-probability-fallback-off]", DECODE + " --fallback off",
             {"c.jsonl": jsonl({"min_satisfied": 1, "groups": [{"label": "s", "alternatives": [["<s>"]]}]})},
             "NoHypothesisError", 1),
    # an explicit "groups": [] stays valid
    ErrorRun("test_decode_rejects_a_record_without_groups", DECODE,
             {"c.jsonl": constraints_line(image_id="i0") + "\n" + jsonl({"image_id": 1})}, "MalformedGroupError", 2,
             ({"image_id": "i0"},)),
    ErrorRun("test_decode_error_line_counts_blank_lines", DECODE,
             {"c.jsonl": "\n".join([constraints_line("dog"), "", constraints_line("zebra"), constraints_line("park")]) + "\n"},
             "UnknownTokenError", 3, ({},)),
    *(
        ErrorRun(f"test_input_error_exits_one[decode-record{i}]", "decode --scorer {scorer} --constraints {d}/c.json",
                 {"c.json": json.dumps(record)}, "MalformedGroupError", 1)
        for i, record in enumerate(NON_GROUPS)
    ),
    *(
        ErrorRun(f"test_decode_rejects_a_min_satisfied_that_is_not_an_integer[{_param('quota', i, quota)}]", DECODE,
                 {"c.jsonl": constraints_line("dog", "park", min_satisfied=quota) + "\n"}, "MalformedGroupError", 1)
        for i, quota in enumerate(["1", True, 1.5, [1]])
    ),
    ErrorRun("test_input_error_exits_one[decode-empty-alternative]", DECODE,
             {"c.jsonl": jsonl({"groups": [{"label": "g", "alternatives": [[]]}]})}, "EmptyGroupError", 1,
             message="group 'g' has no alternatives, or an empty one"),
    ErrorRun("test_input_error_exits_one[decode-17-groups]", DECODE, {"c.jsonl": constraints_line(*17 * ["dog"]) + "\n"},
             "TooManyGroupsError", 1, message="17 groups exceed the mask width (16)"),
    # copied as it was, a non-finite image_id failed the strict JSON output with exit 2
    *(
        ErrorRun(f"test_a_non_finite_image_id_is_a_record_error[{command}-{image_id}]",
                 {"filter": "filter --detections", "decode": "decode --scorer {scorer} --constraints"}[command] + " {d}/r.jsonl",
                 {"r.jsonl": "".join(f'{{"image_id": {i}, "groups": [], "detections": []}}\n' for i in ('"i0"', image_id))},
                 "MalformedGroupError" if command == "decode" else "MalformedDetectionError", 2, ({"image_id": "i0"},))
        for command in ("filter", "decode")
        for image_id in ("NaN", "Infinity", "-Infinity", "[NaN]")
    ),
    # ---- filter records
    *(
        ErrorRun(f"test_filter_rejects_malformed_detections_with_their_line[detection{i}]", FILTER,
                 {"d.jsonl": jsonl({"detections": [DOG]}, {"detections": [DOG, detection]})}, "MalformedDetectionError", 2, ({},))
        for i, detection in enumerate([
            {"class": "Dog", "score": 0.9},
            {"class": "Dog", "score": None, "box": [0, 0, 1, 1]},
            {"class": "Dog", "score": "0.9", "box": [0, 0, 1, 1]},
            {"class": "Dog", "score": 0.9, "box": [0, 0, "1", 1]},
            {"class": "Dog", "score": 0.9, "box": 5},
            {"class": "Dog", "score": 0.9, "box": [0, 0, 10**400, 1]},
            {"score": 0.9, "box": [0, 0, 1, 1]},
            [0.9],
        ])
    ),
    # such a box made the IoU NaN (counted as an overlap) or 0/0
    *(
        ErrorRun(f"test_filter_rejects_boxes_without_a_positive_finite_area[box{i}]", "filter --mode no-class --detections {d}/d.jsonl",
                 {"d.jsonl": jsonl({"detections": [{"class": c, "score": 0.9, "box": box} for c in ("Dog", "Mammal")]})},
                 "DegenerateBoxError", 1)
        for i, box in enumerate([[0, 0, float("inf"), 1], [0, 0, 1e308, 1e308], [0, 0, 1e-200, 1e-200]])
    ),
    ErrorRun("test_filter_rejects_a_min_satisfied_above_the_group_count_with_its_line",
             "filter --min-satisfied 9 --detections {data}/detections.jsonl", {}, "QuotaRangeError", 1,
             message="min_satisfied=9 outside [0, 3]"),
    # a quota that the first record meets and the second, with no groups, does not
    ErrorRun("test_input_error_exits_one[filter-min-satisfied-above-a-later-record]", "filter --min-satisfied 2 --detections {d}/d.jsonl",
             {"d.jsonl": jsonl(*({"detections": d} for d in ([DOG, {**DOG, "class": "Cat", "box": [5, 5, 6, 6]}], [], [DOG])))},
             "QuotaRangeError", 2, ({"min_satisfied": 2},), "min_satisfied=2 outside [0, 0]"),
    # ---- stats and sample records
    *(
        ErrorRun(f"test_stats_rejects_captions_that_are_not_strings_or_scalar_lists[{_param('caption', i, caption)}]",
                 "stats --captions {d}/c.jsonl", {"c.jsonl": jsonl({"caption": "a dog"}, {"caption": caption})}, "MalformedCaptionError", 2)
        for i, caption in enumerate([5, None, {"a": 1, "b": 2}, [["a"]], ["a", {"b": 1}]])
    ),
    ErrorRun("test_stats_error_names_the_record_line", "stats --captions {d}/c.jsonl",
             {"c.jsonl": jsonl({"caption": "a dog"}, {"caption": 5})}, "MalformedCaptionError", 2,
             message="caption must be a string or a list of JSON scalars, got 5"),
    *(
        ErrorRun(f"test_sample_rejects_classes_that_are_not_a_list_of_strings[{_param('classes', i, classes)}]",
                 "sample --images {d}/i.jsonl --target 1 --candidates 2 --seed 0",
                 {"i.jsonl": jsonl({"image_id": "a", "classes": classes}, {"image_id": "b", "classes": ["cat", "cow"]})},
                 "MalformedImageError", 1)
        for i, classes in enumerate(["dog", 5, ["dog", 5], None])
    ),
    # the bad record follows a good one and a blank line
    *(
        ErrorRun(f"test_non_object_records_are_typed_errors_with_their_line[argv{i}-{_param('record', i, record)}-{kind}]",
                 argv + " {d}/r.jsonl",
                 {"r.jsonl": json.dumps({"detections": [], "caption": "a dog", "image_id": "i0", "classes": ["dog"]}) + "\n\n"
                  + json.dumps(record) + "\n"},
                 kind, 3, ({"image_id": "i0"},) if argv.startswith("filter") else ())
        for i, (argv, record, kind) in enumerate([
            ("filter --detections", [1], "MalformedDetectionError"),
            ("filter --detections", {"detections": 5}, "MalformedDetectionError"),
            ("filter --detections", "dog", "MalformedDetectionError"),
            ("stats --captions", [1], "MalformedCaptionError"),
            ("stats --captions", ["a", "dog"], "MalformedCaptionError"),
            (SAMPLE_FLAGS, [1], "MalformedImageError"),
            (SAMPLE_FLAGS, {"classes": ["a", "b"]}, "MissingFieldError"),
            (SAMPLE_FLAGS, {"image_id": "i1"}, "MissingFieldError"),
            (SAMPLE_FLAGS, {"image_id": "i1", "classes": ["a", "b"], "rotation": "sideways"}, "UnknownRotationError"),
            (SAMPLE_FLAGS, {"image_id": None, "classes": ["a"]}, "MalformedImageError"),
            (SAMPLE_FLAGS, {"image_id": "i0", "classes": ["a"]}, "DuplicateImageError"),
        ])
    ),
]


def check_error_run(run, tmp_path, scorer_file, row):
    for name, text in row.files.items():
        path = tmp_path / name
        path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    code, out, err = run(*row.argv.format(d=tmp_path, scorer=scorer_file, data=DATA).split())
    assert code == 1
    printed = [json.loads(line) for line in out.splitlines()]
    assert len(printed) == len(row.printed), out
    assert all(record.items() >= part.items() for record, part in zip(printed, row.printed)), out
    payload = json.loads(err)
    assert err == json.dumps(payload) + "\n"  # exactly one JSON line
    assert isinstance(payload["message"], str)
    line = {} if row.line is None else {"line": row.line}
    assert payload == {"error": row.kind, "message": row.message or payload["message"], **line}


def error_test(name):
    """The test over the rows of ``ERROR_RUNS`` whose id is ``name`` or
    ``name[...]``: one case per row, or no parameters when the only row
    is ``name`` itself."""
    rows = [row for row in ERROR_RUNS if row.id.partition("[")[0] == name]
    if rows[0].id == name:
        (only,) = rows
        return lambda run, tmp_path, scorer_file: check_error_run(run, tmp_path, scorer_file, only)

    @pytest.mark.parametrize("row", rows, ids=[row.id[len(name) + 1 : -1] for row in rows])
    def test(run, tmp_path, scorer_file, row):
        check_error_run(run, tmp_path, scorer_file, row)

    return test


# one test per name in the row ids, so each run keeps the id it had as a
# hand-written test
for _name in dict.fromkeys(row.id.partition("[")[0] for row in ERROR_RUNS):
    globals()[_name] = error_test(_name)

# the typed errors the CLI cannot raise, each with the reason
CLI_UNREACHABLE = {
    "LexbeamError": "the base class; only its subclasses are raised",
    "AllClassesIgnoredError": "the domain API is not in the CLI",
    "OverlappingDomainsError": "the domain API is not in the CLI",
    "UnpooledImageError": "the CLI runs exclude() first, which leaves only images of 2 to 6 classes eligible",
    "EmptyCorpusError": "BigramModel.fit is not in the CLI",
    "MalformedConfigError": "argparse types every flag: DecodeConfig gets ints and bools, sample and stats ints, "
                            "filter an int top_k and a float iou_threshold",
    "OutOfRangeError": "the CLI never calls ConstraintFSM.step",
    "ScorerContractError": "BigramModel's rows are always valid",
    "VocabMismatchError": "decode compiles against the model's own vocabulary",
}


def test_every_cli_reachable_error_has_a_row():
    kinds = {name for name, value in vars(errors).items() if isinstance(value, type) and issubclass(value, errors.LexbeamError)}
    assert CLI_UNREACHABLE.keys() <= kinds
    assert {row.kind for row in ERROR_RUNS} & kinds == kinds - CLI_UNREACHABLE.keys()
    # a duplicate id would hide a row, and a name not starting "test_" would never be collected
    assert len({row.id for row in ERROR_RUNS}) == len(ERROR_RUNS)
    assert all(row.id.startswith("test_") for row in ERROR_RUNS)


# ------------------------------------------------------------------ filter


def test_filter_reads_stdin_dash(run, monkeypatch):
    record = (DATA / "detections.jsonl").read_text()
    monkeypatch.setattr(sys, "stdin", _StdinStub(record))
    code, out, _ = run("filter", "--mode", "full")
    assert code == 0
    golden = next(golden for id_, golden, argv in GOLDEN_RUNS if argv[0] == "filter" and id_ == "full")
    assert out == (DATA / golden).read_text()


class _StdinStub:
    """``sys.stdin`` for an in-process run: the CLI reads only its
    ``buffer``, which holds the text's lines as UTF-8."""

    def __init__(self, text):
        self.buffer = io.BytesIO(text.encode("utf-8"))


# the environments in which the interpreter's stdin codec differs: no
# locale, C.UTF-8, the C locale without UTF-8 mode, and Latin-1 stdio
STDIN_ENVIRONMENTS = {
    "locale-unset": {},
    "c-utf8": {"LANG": "C.UTF-8"},
    "c": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
    "latin-1": {"PYTHONIOENCODING": "latin-1"},
}
_LOCALE_VARIABLES = ("LANG", "LANGUAGE", "PYTHONIOENCODING", "PYTHONUTF8", "PYTHONCOERCECLOCALE")


@pytest.mark.parametrize("variables", STDIN_ENVIRONMENTS.values(), ids=STDIN_ENVIRONMENTS.keys())
def test_stdin_and_a_path_give_the_same_outcome_for_the_same_bytes(tmp_path, variables):
    env = {k: v for k, v in os.environ.items() if k not in _LOCALE_VARIABLES and not k.startswith("LC_")}
    env.update(variables)
    (tmp_path / "h.json").write_text(json.dumps([{"class": "café", "forms": [["café"]]}]), encoding="utf-8")
    detections = json.dumps({"image_id": "c", "detections": [{**DOG, "class": "café"}]}, ensure_ascii=False) + "\n"
    runs = [
        (["filter", "--hierarchy", str(tmp_path / "h.json"), "--detections"], detections.encode("utf-8")),
        (["stats", "--captions"], NON_UTF8),
    ]
    outcomes = []
    for argv, data in runs:
        (tmp_path / "in.jsonl").write_bytes(data)
        both = [
            subprocess.run(
                [sys.executable, "-m", "lexbeam.cli", *argv, source], input=data, capture_output=True, env=env, timeout=120
            )
            for source in (str(tmp_path / "in.jsonl"), "-")
        ]
        from_path, from_stdin = ((proc.returncode, proc.stdout, proc.stderr) for proc in both)
        assert from_stdin == from_path
        outcomes.append(from_path)
    (filter_code, filter_out, filter_err), (stats_code, stats_out, stats_err) = outcomes
    assert (filter_code, filter_err) == (0, b"")
    assert json.loads(filter_out)["groups"] == [{"label": "café", "alternatives": [["café"]]}]
    assert (stats_code, stats_out) == (1, b"")
    assert json.loads(stats_err)["error"] == "UnicodeDecodeError" and json.loads(stats_err)["line"] == 2


def test_filter_keeps_stdout_clean_when_warning(run, tmp_path):
    # an unknown class produces a stderr diagnostic; stdout stays pure data
    path = tmp_path / "dets.jsonl"
    path.write_text(
        json.dumps(
            {
                "image_id": "w1",
                "detections": [
                    {"class": "Wombat", "score": 0.9, "box": [0, 0, 1, 1]},
                    {"class": "Dog", "score": 0.8, "box": [5, 5, 6, 6]},
                ],
            }
        )
        + "\n"
    )
    # a second run in the same process must not repeat the diagnostic
    for _ in range(2):
        code, out, err = run("filter", "--detections", str(path))
        assert code == 0
        payload = json.loads(out)  # exactly one parseable record on stdout
        assert [g["label"] for g in payload["groups"]] == ["Dog"]
        diagnostics = [json.loads(line) for line in err.splitlines()]
        assert len(diagnostics) == 1
        assert diagnostics[0]["level"] == "WARNING"
        assert diagnostics[0]["logger"] == "lexbeam.filtering"
        assert "Wombat" in diagnostics[0]["message"]


def test_filter_top_k_flag(run):
    code, out, _ = run(
        "filter", "--detections", str(DATA / "detections.jsonl"), "--top-k", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["groups"]) == 1
    assert payload["min_satisfied"] == 1


@pytest.mark.parametrize("quota", [0, 3])
def test_filter_stamps_a_min_satisfied_up_to_the_group_count(run, quota):
    code, out, _ = run("filter", "--min-satisfied", str(quota), "--detections", str(DATA / "detections.jsonl"))
    assert code == 0
    assert json.loads(out)["min_satisfied"] == quota


# ------------------------------------------------------------------ decode


def test_decode_emits_one_record_per_line(run, scorer_file, tmp_path):
    lines = [
        constraints_line("dog", "park", image_id="img-1"),
        constraints_line(image_id="img-2"),  # unconstrained
    ]
    cpath = tmp_path / "constraints.jsonl"
    cpath.write_text("\n".join(lines) + "\n")
    code, out, err = run(
        "decode", "--scorer", scorer_file, "--constraints", str(cpath),
        "--beam-width", "8", "--max-len", "8",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["image_id"] for r in records] == ["img-1", "img-2"]
    assert records[0]["satisfied"] == 2
    caption = records[0]["caption"]
    assert "dog" in caption and "park" in caption
    assert records[1]["satisfied"] == 0
    assert isinstance(records[1]["logprob"], float)


def test_decode_min_satisfied_override_and_fallback_off(run, scorer_file, tmp_path):
    # with fallback off, the same record is an input error at max-len 1
    # (the row "decode-max-len-1-fallback-off")
    cpath = tmp_path / "constraints.jsonl"
    cpath.write_text(constraints_line("dog", "park") + "\n")
    code, out, _ = run(
        "decode", "--scorer", scorer_file, "--constraints", str(cpath),
        "--min-satisfied", "1", "--beam-width", "4", "--max-len", "6",
    )
    assert code == 0
    assert json.loads(out)["satisfied"] >= 1


def test_decode_never_prints_a_zero_probability_caption(run, scorer_file, tmp_path):
    # the start sentinel has probability zero under the bigram model, so
    # the fallback caption satisfies nothing; with fallback off the
    # record is an input error (the row "decode-zero-probability-fallback-off")
    cpath = tmp_path / "constraints.jsonl"
    record = {"min_satisfied": 1, "groups": [{"label": "s", "alternatives": [["<s>"]]}]}
    cpath.write_text(json.dumps(record) + "\n")

    def reject(constant):
        raise AssertionError(f"non-standard JSON constant {constant}")

    code, out, _ = run("decode", "--scorer", scorer_file, "--constraints", str(cpath))
    assert code == 0
    assert json.loads(out, parse_constant=reject)["satisfied"] == 0


def test_decode_length_normalize_flag_parses(run, scorer_file, tmp_path):
    cpath = tmp_path / "constraints.jsonl"
    cpath.write_text(constraints_line("dog") + "\n")
    code, out, _ = run(
        "decode", "--scorer", scorer_file, "--constraints", str(cpath),
        "--length-normalize", "--beam-width", "4", "--max-len", "6",
    )
    assert code == 0
    assert json.loads(out)["satisfied"] == 1


def test_decode_mode_flag_accepts_both_semantics(run, scorer_file, tmp_path):
    cpath = tmp_path / "constraints.jsonl"
    cpath.write_text(constraints_line("dog") + "\n")
    for mode in ("faithful", "failure"):
        code, out, _ = run(
            "decode", "--scorer", scorer_file, "--constraints", str(cpath),
            "--mode", mode, "--beam-width", "4", "--max-len", "5",
        )
        assert code == 0
        assert json.loads(out)["satisfied"] == 1


# ------------------------------------------------------------------ sample


def test_sample_selects_target_many_ids(run, tmp_path):
    path = tmp_path / "images.jsonl"
    path.write_text(IMAGES)
    code, out, _ = run(
        "sample", "--images", str(path), "--target", "10", "--candidates", "3",
        "--seed", "7",
    )
    assert code == 0
    ids = [json.loads(line)["image_id"] for line in out.splitlines()]
    assert len(ids) == 10
    assert len(set(ids)) == 10


# ------------------------------------------------------------------- stats


def test_stats_counts_unique_ngrams(run, tmp_path):
    path = tmp_path / "captions.jsonl"
    path.write_text(
        json.dumps({"caption": "a b a b"}) + "\n" + json.dumps({"caption": ["a", "b"]}) + "\n"
    )
    code, out, _ = run("stats", "--captions", str(path))
    assert code == 0
    assert json.loads(out) == {"1-grams": 2, "2-grams": 2, "3-grams": 2, "4-grams": 1}


def test_stats_tokenizes_punctuation(run, tmp_path):
    path = tmp_path / "captions.jsonl"
    path.write_text(json.dumps({"caption": "A dog, a dog!"}) + "\n")
    code, out, _ = run("stats", "--captions", str(path), "--n-max", "2")
    # tokens: a dog a dog -> bigrams {a dog, dog a}
    assert json.loads(out) == {"1-grams": 2, "2-grams": 2}


@pytest.mark.parametrize("caption, unigrams", [([True, 1], 2), ([False, 0], 2), ([1, 1.0], 1)])
def test_stats_counts_booleans_apart_from_numbers(run, tmp_path, caption, unigrams):
    path = tmp_path / "captions.jsonl"
    path.write_text(json.dumps({"caption": caption}) + "\n")
    code, out, _ = run("stats", "--captions", str(path), "--n-max", "1")
    assert (code, json.loads(out)) == (0, {"1-grams": unigrams})


# -------------------------------------------------------------- inspect-fsm


def write_fsm_inputs(tmp_path, labels, min_satisfied, vocab_words):
    groups = [
        {"label": lab, "alternatives": [[w] for w in alts] if isinstance(alts, tuple) else alts} for lab, alts in labels
    ]
    for name, text in inspect_files(groups, vocab_words, min_satisfied).items():
        (tmp_path / name).write_text(text)
    return str(tmp_path / "c.json"), str(tmp_path / "v.json")


def test_inspect_fsm_reports_eight_states_four_accepting(run, tmp_path):
    cpath, vpath = write_fsm_inputs(
        tmp_path,
        [("d1", ("d1",)), ("d2", ("d2",)), ("d3", ("d3",))],
        2,
        ["d1", "d2", "d3", "x"],
    )
    code, out, _ = run("inspect-fsm", "--constraints", cpath, "--vocab", vpath)
    assert code == 0
    assert out.splitlines()[0] == "8 states, 4 accepting"
    assert "state 0: mask=000 satisfied=0 progress=-" in out


def test_inspect_fsm_two_word_phrase_and_empty(run, tmp_path):
    cpath, vpath = write_fsm_inputs(
        tmp_path, [("p", [["a1", "a2"]])], 1, ["a1", "a2", "x"]
    )
    code, out, _ = run("inspect-fsm", "--constraints", cpath, "--vocab", vpath)
    assert out.splitlines()[0] == "3 states, 1 accepting"

    cpath, vpath = write_fsm_inputs(tmp_path, [], 0, ["a"])
    code, out, _ = run("inspect-fsm", "--constraints", cpath, "--vocab", vpath)
    assert out.splitlines()[0] == "1 states, 1 accepting"


def test_inspect_fsm_transition_dump(run, tmp_path):
    cpath, vpath = write_fsm_inputs(tmp_path, [("d1", ("d1",))], 1, ["d1", "x"])
    code, out, _ = run(
        "inspect-fsm", "--constraints", cpath, "--vocab", vpath, "--transitions"
    )
    assert code == 0
    assert "'d1'->1" in out


# ------------------------------------------------ internal errors and pipes


def test_an_internal_key_error_exits_two(run, tmp_path, monkeypatch):
    # only bad input exits 1: a KeyError from a bug is not one
    def broken(captions, n_max):
        raise KeyError("lost")

    monkeypatch.setattr("lexbeam.cli.ngram_stats", broken)
    path = tmp_path / "captions.jsonl"
    path.write_text(json.dumps({"caption": "a dog"}) + "\n")
    code, out, err = run("stats", "--captions", str(path))
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "internal", "message": "KeyError: 'lost'"}


class _ClosedStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_exits_141_without_error_or_manifest(run, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    manifest = tmp_path / "manifest.json"
    code, _, err = run("--manifest", str(manifest), "filter", "--detections", str(DATA / "detections.jsonl"))
    assert (code, err) == (141, "")
    assert not manifest.exists()


def _cli_into(stdout, *argv):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # stdout buffered, as by default
    return subprocess.run(
        [sys.executable, "-m", "lexbeam.cli", *argv],
        stdin=subprocess.DEVNULL, stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120,
    )


def test_a_pipe_closed_by_head_exits_141_without_error_or_manifest(tmp_path):
    # 6144 states dump about 1 MB, far more than the pipe holds, so a
    # write fails once head has printed its line and left
    cpath, vpath = write_fsm_inputs(
        tmp_path, [(f"g{g}", [[f"a{g}", f"b{g}"]]) for g in range(10)], 1, [f"{w}{g}" for g in range(10) for w in "ab"]
    )
    manifest = tmp_path / "manifest.json"
    head = subprocess.Popen(["head", "-1"], stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    proc = _cli_into(
        head.stdin, "--manifest", str(manifest), "inspect-fsm", "--constraints", cpath, "--vocab", vpath, "--transitions"
    )
    first, _ = head.communicate(timeout=120)
    assert first.startswith(b"6144 states, ")
    assert (proc.returncode, proc.stderr) == (141, b"")
    assert not manifest.exists()


def test_a_pipe_closed_before_a_small_output_exits_141_without_error(tmp_path):
    # the whole output fits stdout's buffer, so the write fails only on
    # the final flush, and the flush at interpreter exit must not fail again
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _cli_into(write, "filter", "--detections", str(DATA / "detections.jsonl"))
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_cli_defaults_are_the_library_defaults():
    from lexbeam.beam import DecodeConfig
    from lexbeam.filtering import DEFAULT_IOU_THRESHOLD, DEFAULT_TOP_K

    parser = build_parser()
    decode_args = parser.parse_args(["decode", "--scorer", "m.json"])
    assert (decode_args.beam_width, decode_args.max_len) == (DecodeConfig().beam_width, DecodeConfig().max_len)
    filter_args = parser.parse_args(["filter"])
    assert (filter_args.top_k, filter_args.iou_threshold) == (DEFAULT_TOP_K, DEFAULT_IOU_THRESHOLD)


# --------------------------------------------------------------- manifests


def test_manifest_written_and_deterministic(run, tmp_path):
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    for mpath in (m1, m2):
        code, out, _ = run(
            "--manifest", str(mpath),
            "filter", "--detections", str(DATA / "detections.jsonl"),
        )
        assert code == 0
    assert m1.read_bytes() == m2.read_bytes()
    manifest = json.loads(m1.read_text())
    assert manifest["subcommand"] == "filter"
    assert manifest["version"]
    assert manifest["wall_time_ms"] is None
    assert str(DATA / "detections.jsonl") in manifest["inputs"]
    assert manifest["flags"]["mode"] == "full"


@pytest.mark.parametrize("before", [None, b"an earlier manifest\n"], ids=["new", "existing"])
@pytest.mark.parametrize("code", [0, 1, 2, 141])
def test_only_a_successful_run_writes_the_manifest_path(run, tmp_path, monkeypatch, code, before):
    # the path is opened before any input is read, yet a run that fails
    # must leave it as it was
    manifest, cpath = tmp_path / "m.json", tmp_path / "c.jsonl"
    if before is not None:
        manifest.write_bytes(before)
    cpath.write_text(jsonl({"caption": 5 if code == 1 else "a dog"}))
    if code == 2:
        monkeypatch.setattr("lexbeam.cli.ngram_stats", lambda captions, n_max: {}[0])
    if code == 141:
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert run("--manifest", str(manifest), "stats", "--captions", str(cpath))[0] == code
    if code == 0:
        assert json.loads(manifest.read_text())["subcommand"] == "stats"
    else:
        assert (manifest.read_bytes() if manifest.exists() else None) == before


def test_manifest_timings_opt_in(run, tmp_path):
    mpath, cpath = tmp_path / "m.json", tmp_path / "c.jsonl"
    cpath.write_text(json.dumps({"caption": "a b"}) + "\n")
    code, _, _ = run("--manifest", str(mpath), "--timings", "stats", "--captions", str(cpath))
    assert code == 0
    assert json.loads(mpath.read_text())["wall_time_ms"] >= 0.0


# ---------------------------------------------------------------- pipeline


def test_filter_pipes_into_decode_via_shell(tmp_path, scorer_file):
    detections = json.dumps(
        {
            "image_id": "img-9",
            "detections": [
                {"class": "Dog", "score": 0.9, "box": [0, 0, 10, 10]},
            ],
        }
    )
    pipeline = (
        f"{sys.executable} -m lexbeam.cli filter --detections - | "
        f"{sys.executable} -m lexbeam.cli decode --scorer {scorer_file} "
        f"--constraints - --beam-width 6 --max-len 8"
    )
    proc = subprocess.run(
        pipeline, shell=True, input=detections, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["image_id"] == "img-9"
    assert record["satisfied"] == 1
    assert "dog" in record["caption"] or "dogs" in record["caption"]


def test_repeated_runs_are_byte_identical(tmp_path, scorer_file):
    cpath = tmp_path / "constraints.jsonl"
    cpath.write_text(constraints_line("dog", "park") + "\n")
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [
                sys.executable, "-m", "lexbeam.cli",
                "decode", "--scorer", scorer_file, "--constraints", str(cpath),
                "--beam-width", "5", "--max-len", "8",
            ],
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
