"""End-to-end CLI behavior: exit codes, JSON-lines formats, golden
filter outputs, shell pipelining and manifest determinism.

The 10-detection golden fixture exercises every filtering stage; the
expected files were derived by hand:

* ``full``: the blacklist removes Mammal, Human eye and Tree; overlap
  suppression removes Vehicle (strict ancestor of Car on the same box);
  confidence ranking leaves Dog .9, Car .8, Cat .6.
* ``no-class``: no blacklist, so overlap suppression removes Mammal
  (ancestor of Dog) and Vehicle; ranking leaves Human eye .99, Dog .9,
  Tree .85.
* ``no-overlap``: blacklist only; ranking leaves Dog .9, Car .8,
  Vehicle .7.
* ``none``: raw ranking: Human eye .99, Mammal .95, Dog .9 (the two
  Dog detections collapse to the higher score).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from lexbeam import BigramModel, Vocabulary
from lexbeam.cli import main

DATA = Path(__file__).parent / "data"


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
    model.save(str(path))
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


# ------------------------------------------------------------------ filter


@pytest.mark.parametrize("mode", ["full", "no-class", "no-overlap", "none"])
def test_filter_matches_golden_output(run, mode):
    code, out, err = run(
        "filter", "--detections", str(DATA / "detections.jsonl"), "--mode", mode
    )
    assert code == 0
    golden = (DATA / f"golden_filter_{mode}.jsonl").read_text()
    assert out == golden


def test_filter_reads_stdin_dash(run, monkeypatch):
    record = (DATA / "detections.jsonl").read_text()
    monkeypatch.setattr(sys, "stdin", _StdinStub(record))
    code, out, _ = run("filter", "--mode", "full")
    assert code == 0
    assert out == (DATA / "golden_filter_full.jsonl").read_text()


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


@pytest.mark.parametrize("seed,candidates,target", [(7, 5, 350), (11, 3, 300)])
def test_sample_stdout_matches_frozen_golden(run, seed, candidates, target):
    # 2000 seeded images over 40 classes (tests/data/sample_images.jsonl),
    # golden stdout frozen from the full-recount sampler
    code, out, _ = run(
        "sample", "--images", str(DATA / "sample_images.jsonl"), "--target", str(target),
        "--candidates", str(candidates), "--seed", str(seed),
    )
    assert code == 0
    assert out == (DATA / f"golden_sample_seed-{seed}.jsonl").read_text()


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


@pytest.mark.parametrize("caption", [5, None, {"a": 1, "b": 2}, [["a"]], ["a", {"b": 1}]])
def test_stats_rejects_captions_that_are_not_strings_or_scalar_lists(run, tmp_path, caption):
    path = tmp_path / "captions.jsonl"
    path.write_text(json.dumps({"caption": "a dog"}) + "\n" + json.dumps({"caption": caption}) + "\n")
    code, out, err = run("stats", "--captions", str(path))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "MalformedCaptionError"


@pytest.mark.parametrize("n_max", [4, 6])
def test_stats_stdout_matches_frozen_golden(run, n_max):
    # 400 seeded captions with punctuation, case, repeated phrases, a few
    # pre-tokenized lists (one mixing 1 with "1") and an empty caption
    code, out, _ = run("stats", "--captions", str(DATA / "stats_captions.jsonl"), "--n-max", str(n_max))
    assert code == 0
    assert out == (DATA / f"golden_stats_n-max-{n_max}.jsonl").read_text()


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
