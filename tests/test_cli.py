"""End-to-end CLI behavior: exit codes, JSON-lines formats, golden
outputs, shell pipelining and manifest determinism.

``helpers.GOLDEN_RUNS`` is the one list of golden CLI runs, with how
each golden was frozen; the tests below run each row in-process and
check that every ``tests/data/golden_*`` file has a row. CI also runs
this module against the installed package from outside the checkout,
where ``lexbeam`` and its shipped hierarchy and blacklist resolve to the
installed copy.
"""

import io
import json
import os
import subprocess
import sys

import pytest

from lexbeam import BigramModel, Vocabulary
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


# -------------------------------------------------------------- exit codes


def test_help_exits_zero(run):
    code, out, err = run("decode", "--help")
    assert code == 0


def test_unknown_flag_exits_one_with_json_error(run):
    code, out, err = run("decode", "--bogus")
    assert code == 1
    assert out == ""
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "usage"


def test_unknown_subcommand_exits_one(run):
    code, _, err = run("frobnicate")
    assert code == 1
    assert json.loads(err.strip().splitlines()[-1])["error"] == "usage"


def test_version_flag(run):
    code, out, err = run("--version")
    assert code == 0


def test_missing_input_file_exits_one(run, tmp_path):
    code, out, err = run("stats", "--captions", str(tmp_path / "nope.jsonl"))
    assert code == 1
    assert json.loads(err.strip().splitlines()[-1])["error"]


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


# ------------------------------------------------------------------ filter


def test_filter_reads_stdin_dash(run, monkeypatch):
    record = (DATA / "detections.jsonl").read_text()
    monkeypatch.setattr(sys, "stdin", _StdinStub(record))
    code, out, _ = run("filter", "--mode", "full")
    assert code == 0
    golden = next(golden for id_, golden, argv in GOLDEN_RUNS if argv[0] == "filter" and id_ == "full")
    assert out == (DATA / golden).read_text()


class _StdinStub:
    def __init__(self, text):
        self._lines = text.splitlines(keepends=True)

    def __iter__(self):
        return iter(self._lines)


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


# ------------------------------------------------------------------ decode


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
    cpath = tmp_path / "constraints.jsonl"
    cpath.write_text(constraints_line("dog", "park") + "\n")
    code, out, _ = run(
        "decode", "--scorer", scorer_file, "--constraints", str(cpath),
        "--min-satisfied", "1", "--beam-width", "4", "--max-len", "6",
    )
    assert code == 0
    assert json.loads(out)["satisfied"] >= 1

    # max-len 1 cannot fit two constraint words; with fallback off the
    # record is an input error
    code, out, err = run(
        "decode", "--scorer", scorer_file, "--constraints", str(cpath),
        "--max-len", "1", "--fallback", "off",
    )
    assert code == 1
    assert json.loads(err.strip().splitlines()[-1])["error"] == "NoHypothesisError"


def test_decode_rejects_unsatisfiable_quota_record(run, scorer_file, tmp_path):
    cpath = tmp_path / "constraints.jsonl"
    cpath.write_text(json.dumps({"min_satisfied": 1, "groups": []}) + "\n")
    code, out, err = run("decode", "--scorer", scorer_file, "--constraints", str(cpath))
    assert code == 1
    assert out == ""


def test_decode_never_prints_a_zero_probability_caption(run, scorer_file, tmp_path):
    # the start sentinel has probability zero under the bigram model, so
    # no caption with a finite logprob satisfies this record
    cpath = tmp_path / "constraints.jsonl"
    record = {"min_satisfied": 1, "groups": [{"label": "s", "alternatives": [["<s>"]]}]}
    cpath.write_text(json.dumps(record) + "\n")
    code, out, err = run(
        "decode", "--scorer", scorer_file, "--constraints", str(cpath),
        "--fallback", "off",
    )
    assert code == 1
    assert out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "NoHypothesisError"

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


def test_inspect_fsm_propagates_compile_errors(run, tmp_path):
    cpath, vpath = write_fsm_inputs(tmp_path, [("z", ("zebra",))], 1, ["a", "b"])
    code, out, err = run("inspect-fsm", "--constraints", cpath, "--vocab", vpath)
    assert code == 1
    assert json.loads(err.strip().splitlines()[-1])["error"] == "UnknownTokenError"


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


@pytest.mark.parametrize(
    "model",
    [
        [1, 2],
        {"alpha": 1.0, "vocab": ["a"]},
        {"alpha": 1.0, "vocab": ["a"], "counts": 5},
        {"alpha": 1.0, "vocab": ["a"], "counts": [[0, 2]]},
        {"alpha": 1.0, "vocab": ["a"], "counts": [[0, 2, None]]},
        {"alpha": 1.0, "vocab": ["a"], "counts": [[0, 2, float("inf")]]},
        {"alpha": None, "vocab": ["a"], "counts": []},
        {"alpha": 1.0, "vocab": "ab", "counts": []},
    ],
)
def test_decode_rejects_malformed_model_files(run, tmp_path, model):
    mpath, cpath = tmp_path / "model.json", tmp_path / "constraints.jsonl"
    mpath.write_text(json.dumps(model))
    cpath.write_text(constraints_line("a") + "\n")
    code, out, err = run("decode", "--scorer", str(mpath), "--constraints", str(cpath))
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "MalformedModelError"
    assert "line" not in payload  # a model-file error, not a record error


def test_decode_rejects_a_record_without_groups(run, scorer_file, tmp_path):
    cpath = tmp_path / "constraints.jsonl"
    cpath.write_text(constraints_line(image_id="i0") + "\n" + json.dumps({"image_id": 1}) + "\n")
    code, out, err = run("decode", "--scorer", scorer_file, "--constraints", str(cpath))
    assert code == 1
    assert json.loads(out)["image_id"] == "i0"  # an explicit "groups": [] stays valid
    payload = json.loads(err)
    assert (payload["error"], payload["line"]) == ("MalformedGroupError", 2)


@pytest.mark.parametrize("image_id", ["NaN", "Infinity", "-Infinity", "[NaN]"])
@pytest.mark.parametrize("command", ["filter", "decode"])
def test_a_non_finite_image_id_is_a_record_error(run, tmp_path, scorer_file, command, image_id):
    # copied as it was, it failed the strict JSON output with exit 2
    path = tmp_path / "records.jsonl"
    path.write_text("".join(f'{{"image_id": {i}, "groups": [], "detections": []}}\n' for i in ('"i0"', image_id)))
    inputs = ("decode", "--scorer", scorer_file, "--constraints") if command == "decode" else ("filter", "--detections")
    code, out, err = run(*inputs, str(path))
    assert code == 1
    assert [json.loads(line)["image_id"] for line in out.splitlines()] == ["i0"]
    payload = json.loads(err)
    error = "MalformedGroupError" if command == "decode" else "MalformedDetectionError"
    assert (payload["error"], payload["line"]) == (error, 2)


# ------------------------------------------------------------------ sample


def images_jsonl(tmp_path):
    import random

    rng = random.Random(5150)
    pool = ["person", "car", "dog", "tree", "boat", "bird", "chair", "lamp"]
    lines = []
    for i in range(30):
        n = rng.randint(1, 8)
        rotation = rng.choice(["zero", "zero", "zero", "nonzero", "unknown"])
        lines.append(
            json.dumps(
                {
                    "image_id": f"im{i:03d}",
                    "classes": sorted(rng.sample(pool, n)),
                    "rotation": rotation,
                }
            )
        )
    path = tmp_path / "images.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_sample_selects_target_many_ids(run, tmp_path):
    path = images_jsonl(tmp_path)
    code, out, _ = run(
        "sample", "--images", path, "--target", "10", "--candidates", "3",
        "--seed", "7",
    )
    assert code == 0
    ids = [json.loads(line)["image_id"] for line in out.splitlines()]
    assert len(ids) == 10
    assert len(set(ids)) == 10


def test_sample_requires_seed(run, tmp_path):
    path = images_jsonl(tmp_path)
    code, _, err = run("sample", "--images", path, "--target", "5", "--candidates", "3")
    assert code == 1
    assert json.loads(err.strip().splitlines()[-1])["error"] == "usage"


@pytest.mark.parametrize("classes", ["dog", 5, ["dog", 5], None])
def test_sample_rejects_classes_that_are_not_a_list_of_strings(run, tmp_path, classes):
    path = tmp_path / "images.jsonl"
    records = [
        {"image_id": "a", "classes": classes},
        {"image_id": "b", "classes": ["cat", "cow"]},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, err = run("sample", "--images", str(path), "--target", "1", "--candidates", "2", "--seed", "0")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "MalformedImageError"


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


@pytest.mark.parametrize("caption", [5, None, {"a": 1, "b": 2}, [["a"]], ["a", {"b": 1}]])
def test_stats_rejects_captions_that_are_not_strings_or_scalar_lists(run, tmp_path, caption):
    path = tmp_path / "captions.jsonl"
    path.write_text(json.dumps({"caption": "a dog"}) + "\n" + json.dumps({"caption": caption}) + "\n")
    code, out, err = run("stats", "--captions", str(path))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "MalformedCaptionError"


def test_stats_rejects_a_nonpositive_n_max(run, tmp_path):
    path = tmp_path / "captions.jsonl"
    path.write_text(json.dumps({"caption": "a dog"}) + "\n")
    code, out, err = run("stats", "--captions", str(path), "--n-max", "0")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "NonPositiveCountError", "message": "n_max must be >= 1"}


# -------------------------------------------------------------- inspect-fsm


def write_fsm_inputs(tmp_path, labels, min_satisfied, vocab_words):
    cpath = tmp_path / "constraints.json"
    cpath.write_text(
        json.dumps(
            {
                "min_satisfied": min_satisfied,
                "groups": [
                    {"label": lab, "alternatives": [[w] for w in alts]}
                    if isinstance(alts, tuple)
                    else {"label": lab, "alternatives": alts}
                    for lab, alts in labels
                ],
            }
        )
    )
    vpath = tmp_path / "vocab.json"
    vpath.write_text(json.dumps(vocab_words))
    return str(cpath), str(vpath)


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


@pytest.mark.parametrize("alternatives", ["dog", ["dog"]])
def test_inspect_fsm_rejects_string_alternatives(run, tmp_path, alternatives):
    # a string would be iterated as one-letter tokens that happen to resolve
    cpath, vpath = write_fsm_inputs(tmp_path, [("dog", alternatives)], 1, ["d", "o", "g", "dog"])
    code, out, err = run("inspect-fsm", "--constraints", cpath, "--vocab", vpath)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "MalformedGroupError"


@pytest.mark.parametrize("words", ["abc", 5, ["a", 1], {"a": 1}, None])
def test_inspect_fsm_rejects_a_vocabulary_that_is_not_a_list_of_strings(run, tmp_path, words):
    # a string would be iterated as one-letter tokens
    cpath, vpath = write_fsm_inputs(tmp_path, [("a", ("a",))], 1, words)
    code, out, err = run("inspect-fsm", "--constraints", cpath, "--vocab", vpath)
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "MalformedVocabularyError"
    assert "line" not in payload


@pytest.mark.parametrize(
    "record",
    [
        {"min_satisfied": 1, "groups": [{"label": "g", "alternatives": 5}]},
        {"min_satisfied": 1, "groups": [5]},
        {"min_satisfied": 1, "groups": [{"label": "g", "alternatives": [[["dog"]]]}]},
    ],
)
def test_non_list_and_non_object_groups_are_input_errors(run, tmp_path, scorer_file, record):
    cpath, vpath = tmp_path / "c.json", tmp_path / "v.json"
    cpath.write_text(json.dumps(record))
    vpath.write_text(json.dumps(["dog"]))
    for argv in (
        ("inspect-fsm", "--constraints", str(cpath), "--vocab", str(vpath)),
        ("decode", "--scorer", scorer_file, "--constraints", str(cpath)),
    ):
        code, out, err = run(*argv)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "MalformedGroupError"


@pytest.mark.parametrize("quota", ["1", True, 1.5, [1]])
def test_decode_rejects_a_min_satisfied_that_is_not_an_integer(run, tmp_path, scorer_file, quota):
    cpath = tmp_path / "c.jsonl"
    cpath.write_text(constraints_line("dog", "park", min_satisfied=quota) + "\n")
    code, out, err = run("decode", "--scorer", scorer_file, "--constraints", str(cpath))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "MalformedGroupError"


# ------------------------------------------------------ error line numbers


def test_stats_error_names_the_record_line(run, tmp_path):
    path = tmp_path / "captions.jsonl"
    path.write_text(json.dumps({"caption": "a dog"}) + "\n" + json.dumps({"caption": 5}) + "\n")
    code, out, err = run("stats", "--captions", str(path))
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "MalformedCaptionError",
        "message": "caption must be a string or a list of JSON scalars, got 5",
        "line": 2,
    }


def test_decode_error_line_counts_blank_lines(run, scorer_file, tmp_path):
    cpath = tmp_path / "constraints.jsonl"
    lines = [constraints_line("dog"), "", constraints_line("zebra"), constraints_line("park")]
    cpath.write_text("\n".join(lines) + "\n")
    code, out, err = run("decode", "--scorer", scorer_file, "--constraints", str(cpath))
    assert code == 1
    assert len(out.splitlines()) == 1  # records before the bad one are still printed
    payload = json.loads(err)
    assert (payload["error"], payload["line"]) == ("UnknownTokenError", 3)


def test_errors_outside_any_record_carry_no_line(run, tmp_path):
    # the candidate count is checked after every image is read
    code, out, err = run("sample", "--images", images_jsonl(tmp_path), "--target", "3", "--candidates", "0", "--seed", "0")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "NonPositiveCountError", "message": "n_candidates must be >= 1"}
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"alpha": 1.0, "vocab": ["a"], "counts": [[0, 9, 1]]}))
    code, out, err = run("decode", "--scorer", str(model), "--constraints", str(model))
    assert (code, out) == (1, "")
    assert "line" not in json.loads(err)


@pytest.mark.parametrize(
    "detection",
    [
        {"class": "Dog", "score": 0.9},
        {"class": "Dog", "score": None, "box": [0, 0, 1, 1]},
        {"class": "Dog", "score": "0.9", "box": [0, 0, 1, 1]},
        {"class": "Dog", "score": 0.9, "box": [0, 0, "1", 1]},
        {"class": "Dog", "score": 0.9, "box": 5},
        {"class": "Dog", "score": 0.9, "box": [0, 0, 10**400, 1]},
        {"score": 0.9, "box": [0, 0, 1, 1]},
        [0.9],
    ],
)
def test_filter_rejects_malformed_detections_with_their_line(run, tmp_path, detection):
    path = tmp_path / "detections.jsonl"
    good = {"class": "Dog", "score": 0.9, "box": [0, 0, 1, 1]}
    path.write_text("".join(json.dumps({"detections": d}) + "\n" for d in ([good], [good, detection])))
    code, out, err = run("filter", "--detections", str(path))
    assert code == 1
    assert len(out.splitlines()) == 1
    payload = json.loads(err)
    assert (payload["error"], payload["line"]) == ("MalformedDetectionError", 2)


@pytest.mark.parametrize("box", [[0, 0, float("inf"), 1], [0, 0, 1e308, 1e308], [0, 0, 1e-200, 1e-200]])
def test_filter_rejects_boxes_without_a_positive_finite_area(run, tmp_path, box):
    # such a box made the IoU NaN (counted as an overlap) or 0/0
    path = tmp_path / "detections.jsonl"
    path.write_text(json.dumps({"detections": [{"class": c, "score": 0.9, "box": box} for c in ("Dog", "Mammal")]}) + "\n")
    code, out, err = run("filter", "--mode", "no-class", "--detections", str(path))
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert (payload["error"], payload["line"]) == ("DegenerateBoxError", 1)


@pytest.mark.parametrize("records", ["", constraints_line("dog", "park") + "\n"], ids=["empty", "one-record"])
def test_decode_rejects_a_negative_min_satisfied_before_reading(run, tmp_path, scorer_file, records):
    # checked per record by the compiler, it exited 0 on an empty file and
    # blamed line 1 on a one-record file
    path = tmp_path / "constraints.jsonl"
    path.write_text(records)
    code, out, err = run("decode", "--scorer", scorer_file, "--min-satisfied", "-2", "--constraints", str(path))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "QuotaRangeError", "message": "min_satisfied must be non-negative, got -2"}


@pytest.mark.parametrize("records", ["", "{}\n"])
def test_filter_rejects_a_negative_min_satisfied_before_reading(run, tmp_path, records):
    path = tmp_path / "detections.jsonl"
    path.write_text(records)
    code, out, err = run("filter", "--min-satisfied", "-2", "--detections", str(path))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "QuotaRangeError", "message": "min_satisfied must be non-negative, got -2"}


def test_filter_rejects_a_min_satisfied_above_the_group_count_with_its_line(run, tmp_path):
    code, out, err = run("filter", "--min-satisfied", "9", "--detections", str(DATA / "detections.jsonl"))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "QuotaRangeError", "message": "min_satisfied=9 outside [0, 3]", "line": 1}
    # a quota that the first record meets and the second, with no groups, does not
    path = tmp_path / "detections.jsonl"
    dog = {"class": "Dog", "score": 0.9, "box": [0, 0, 1, 1]}
    cat = {"class": "Cat", "score": 0.8, "box": [5, 5, 6, 6]}
    path.write_text("".join(json.dumps({"detections": d}) + "\n" for d in ([dog, cat], [], [dog])))
    code, out, err = run("filter", "--min-satisfied", "2", "--detections", str(path))
    assert code == 1
    assert [json.loads(line)["min_satisfied"] for line in out.splitlines()] == [2]
    assert json.loads(err) == {"error": "QuotaRangeError", "message": "min_satisfied=2 outside [0, 0]", "line": 2}


@pytest.mark.parametrize("quota", [0, 3])
def test_filter_stamps_a_min_satisfied_up_to_the_group_count(run, quota):
    code, out, _ = run("filter", "--min-satisfied", str(quota), "--detections", str(DATA / "detections.jsonl"))
    assert code == 0
    assert json.loads(out)["min_satisfied"] == quota


@pytest.mark.parametrize("hierarchy", [{"class": "dog", "forms": [["dog"]]}, [[1]], [{"forms": [["dog"]]}]])
def test_filter_rejects_malformed_hierarchy_files(run, tmp_path, hierarchy):
    hpath, dpath = tmp_path / "hierarchy.json", tmp_path / "detections.jsonl"
    hpath.write_text(json.dumps(hierarchy))
    dpath.write_text(json.dumps({"detections": [{"class": "dog", "score": 0.9, "box": [0, 0, 1, 1]}]}) + "\n")
    code, out, err = run("filter", "--hierarchy", str(hpath), "--detections", str(dpath))
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "MalformedHierarchyError"
    assert "line" not in payload


@pytest.mark.parametrize("forms", [["dog"], [[1]], "dog"])
def test_filter_rejects_hierarchy_forms_that_are_not_lists_of_strings(run, tmp_path, forms):
    hpath, dpath = tmp_path / "hierarchy.json", tmp_path / "detections.jsonl"
    hpath.write_text(json.dumps([{"class": "dog", "forms": forms}]))
    dpath.write_text(json.dumps({"detections": [{"class": "dog", "score": 0.9, "box": [0, 0, 1, 1]}]}) + "\n")
    code, out, err = run("filter", "--hierarchy", str(hpath), "--detections", str(dpath))
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "MalformedGroupError"
    assert "line" not in payload  # a hierarchy-file error, not a record error


@pytest.mark.parametrize(
    "argv, record, error",
    [
        (("filter", "--detections"), [1], "MalformedDetectionError"),
        (("filter", "--detections"), {"detections": 5}, "MalformedDetectionError"),
        (("filter", "--detections"), "dog", "MalformedDetectionError"),
        (("stats", "--captions"), [1], "MalformedCaptionError"),
        (("stats", "--captions"), ["a", "dog"], "MalformedCaptionError"),
        (("sample", "--target", "1", "--candidates", "1", "--seed", "0", "--images"), [1], "MalformedImageError"),
        (("sample", "--target", "1", "--candidates", "1", "--seed", "0", "--images"), {"classes": ["a", "b"]}, "MissingFieldError"),
        (("sample", "--target", "1", "--candidates", "1", "--seed", "0", "--images"), {"image_id": "i1"}, "MissingFieldError"),
        (
            ("sample", "--target", "1", "--candidates", "1", "--seed", "0", "--images"),
            {"image_id": "i1", "classes": ["a", "b"], "rotation": "sideways"},
            "UnknownRotationError",
        ),
        (("sample", "--target", "1", "--candidates", "1", "--seed", "0", "--images"), {"image_id": None, "classes": ["a"]}, "MalformedImageError"),
        (("sample", "--target", "1", "--candidates", "1", "--seed", "0", "--images"), {"image_id": "i0", "classes": ["a"]}, "DuplicateImageError"),
    ],
)
def test_non_object_records_are_typed_errors_with_their_line(run, tmp_path, argv, record, error):
    path = tmp_path / "records.jsonl"
    good = {"detections": [], "caption": "a dog", "image_id": "i0", "classes": ["dog"]}
    path.write_text(json.dumps(good) + "\n\n" + json.dumps(record) + "\n")
    code, out, err = run(*argv, str(path))
    assert code == 1
    assert json.loads(err)["error"] == error
    assert json.loads(err)["line"] == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (("decode", "--beam-width", "0"), "beam_width must be >= 1"),
        (("decode", "--max-len", "0"), "max_len must be >= 1"),
        (("filter", "--top-k", "-1"), "top_k must be non-negative, got -1"),
        (("filter", "--mode", "no-class", "--iou-threshold", "nan"), "iou_threshold must lie in [0, 1], got nan"),
        (("filter", "--mode", "no-overlap", "--iou-threshold", "-1"), "iou_threshold must lie in [0, 1], got -1.0"),
    ],
)
@pytest.mark.parametrize("records", ["", "{}\n"])
def test_flag_errors_carry_no_line_and_precede_reading(run, tmp_path, scorer_file, argv, message, records):
    path = tmp_path / "records.jsonl"
    path.write_text(records)
    inputs = ("--scorer", scorer_file, "--constraints") if argv[0] == "decode" else ("--detections",)
    code, out, err = run(*argv, *inputs, str(path))
    assert (code, out) == (1, "")
    error = "NonPositiveCountError" if argv[0] == "decode" else "FilterOptionError"
    assert json.loads(err) == {"error": error, "message": message}


@pytest.mark.parametrize(
    "argv, error, line",
    [
        ("decode --scorer {scorer} --constraints {d}/two.jsonl --min-satisfied 9", "QuotaRangeError", 1),
        ("inspect-fsm --constraints {d}/quota.json --vocab {d}/vocab.json", "QuotaRangeError", None),
        ("filter --detections {d}/detections.jsonl", "ConfidenceRangeError", 1),
        ("filter --detections {d}/box3.jsonl", "DegenerateBoxError", 2),
        ("filter --detections {d}/box5.jsonl", "DegenerateBoxError", 2),
        ("inspect-fsm --constraints {d}/quota.json --vocab {d}/twice.json", "DuplicateTokenError", None),
        ("decode --scorer {d}/twice-model.json --constraints {d}/two.jsonl", "DuplicateTokenError", None),
        ("decode --scorer {d}/negative-model.json --constraints {d}/two.jsonl", "NegativeBigramCountError", None),
        ("inspect-fsm --constraints {d}/huge.json --vocab {d}/huge-vocab.json", "FSMTooLargeError", None),
    ],
)
def test_bad_values_are_typed_input_errors(run, tmp_path, scorer_file, argv, error, line):
    # each exited 1 as a bare ValueError, a type that a bug raises too
    files = {
        "two.jsonl": constraints_line("dog", "park") + "\n",
        "quota.json": constraints_line("dog", "park", min_satisfied=9),
        "vocab.json": json.dumps(["dog", "park"]),
        "twice.json": json.dumps(["dog", "park", "dog"]),
        "twice-model.json": json.dumps({"alpha": 1.0, "vocab": ["dog", "dog"], "counts": []}),
        "negative-model.json": json.dumps({"alpha": 1.0, "vocab": ["dog", "park"], "counts": [[2, 3, -1]]}),
        "detections.jsonl": json.dumps({"detections": [{"class": "Dog", "score": 1.5, "box": [0, 0, 1, 1]}]}) + "\n",
        **{
            f"box{n}.jsonl": "\n" + json.dumps({"detections": [{"class": "Dog", "score": 0.9, "box": [0] * (n - 2) + [1, 1]}]}) + "\n"
            for n in (3, 5)
        },
        # 16 groups of one 40-token phrase: 20.5M states, refused before any is built
        "huge.json": json.dumps({"groups": [{"alternatives": [[f"t{40 * g + i}" for i in range(40)]]} for g in range(16)]}),
        "huge-vocab.json": json.dumps([f"t{i}" for i in range(640)]),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out, err = run(*argv.format(scorer=scorer_file, d=tmp_path).split())
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert (payload["error"], payload.get("line")) == (error, line)


def test_non_utf8_input_is_an_input_error(run, tmp_path):
    path = tmp_path / "captions.jsonl"
    path.write_bytes(b'{"caption": "a dog"}\n{"caption": "caf\xe9"}\n')
    code, out, err = run("stats", "--captions", str(path))
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "UnicodeDecodeError"


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


def test_manifest_timings_opt_in(run, tmp_path):
    mpath = tmp_path / "m.json"
    code, _, _ = run(
        "--manifest", str(mpath), "--timings",
        "stats", "--captions", str(_captions_file(tmp_path)),
    )
    assert code == 0
    assert json.loads(mpath.read_text())["wall_time_ms"] >= 0.0


def test_an_unwritable_manifest_is_an_input_error(run, tmp_path):
    # written outside the error mapping, its OSError escaped main()
    mpath = tmp_path / "missing" / "m.json"
    code, _, err = run("--manifest", str(mpath), "stats", "--captions", str(_captions_file(tmp_path)))
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "FileNotFoundError" and "line" not in payload
    assert not mpath.exists()


def _captions_file(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps({"caption": "a b"}) + "\n")
    return path


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
