"""Seeded input generator for the lexbeam benchmark.

Everything here is independent of the program: it imports nothing from
``lexbeam`` and writes plain files in the documented formats (model
JSON, hierarchy JSON, blacklist text, JSON-lines records). Alongside
the files it returns what the output checks need, known by
construction: the generator's own bigram count table, the planted
filter outcome of every detection record, the word forms of every
constraint group and the token lists of every reference caption.

The same ``(workload, seed)`` always gives the same inputs.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"

N_CLASSES = 600
DEPTH_SIZES = (20, 80, 200, 300)  # classes per level, 4 levels
N_BLACKLIST = 40
MULTIWORD_SHARE = 0.25
N_MODIFIERS = 30
CELL = 100.0  # grid cell side; boxes never cross cells
GRID_COLS = 8
IOU_INSET = 2.0  # descendant box inset in its ancestor box: IoU >= 0.889


@dataclass
class CountTable:
    """The generator's bigram counts: ``rows[v][w] = count`` over ids
    (0 = start sentinel, 1 = end sentinel, content from 2)."""

    words: list[str]
    rows: dict[int, dict[int, int]]
    alpha: float
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = {w: i + 2 for i, w in enumerate(self.words)}
        self._totals = {v: sum(r.values()) for v, r in self.rows.items()}

    @property
    def size(self) -> int:
        return len(self.words) + 2

    def step_logprob(self, v: int, w: int) -> float:
        """Laplace estimate of P(w | v); the start sentinel is never predicted."""
        c = self.rows.get(v, {}).get(w, 0)
        denom = self._totals.get(v, 0) + self.alpha * (self.size - 1)
        return math.log(c + self.alpha) - math.log(denom)

    def caption_logprob(self, ids: list[int]) -> float:
        """Log-probability of ``ids`` (content ids ending in the end
        sentinel), starting from the start sentinel."""
        total, prev = 0.0, 0
        for w in ids:
            total += self.step_logprob(prev, w)
            prev = w
        return total

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "vocab": self.words,
            "counts": [
                [v, w, c] for v in sorted(self.rows) for w, c in sorted(self.rows[v].items())
            ],
        }


@dataclass
class DetectionRecord:
    """One detection record and its planted filter outcome."""

    image_id: str
    detections: list[dict]
    expected_labels: list[str]  # top-k surviving classes, best first


@dataclass
class Inputs:
    """Paths of the written files plus what the checks compare against."""

    files: dict[str, str]
    table: CountTable | None = None
    forms: dict[str, list[list[str]]] = field(default_factory=dict)  # class -> forms
    detections: list[DetectionRecord] = field(default_factory=list)
    constraints: list[dict] = field(default_factory=list)  # many_groups records
    images: list[dict] = field(default_factory=list)
    captions: list[list[str]] = field(default_factory=list)  # expected tokens
    sample_seed: int = 0
    ngrams: dict[int, int] = field(default_factory=dict)  # filled by the checks' recount


class _Words:
    """Unique pronounceable lowercase words ending in a vowel, so that
    ``word + "s"`` (the plural) never collides with another word."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.taken: set[str] = set()

    def new(self) -> str:
        while True:
            n = self.rng.choice((2, 3, 3, 4))
            w = "".join(self.rng.choice(CONSONANTS) + self.rng.choice(VOWELS) for _ in range(n))
            if w not in self.taken:
                self.taken.add(w)
                self.taken.add(w + "s")
                return w


def _zipf_cum(n: int, s: float = 1.0) -> list[float]:
    cum, acc = [], 0.0
    for i in range(n):
        acc += 1.0 / (i + 1) ** s
        cum.append(acc)
    return cum


def _hierarchy(rng: random.Random, words: _Words) -> tuple[list[dict], dict[str, str | None]]:
    modifiers = [words.new() for _ in range(N_MODIFIERS)]
    records, parent_of, levels = [], {}, []
    for depth, size in enumerate(DEPTH_SIZES):
        level = []
        for _ in range(size):
            sing = words.new()
            name = sing.capitalize()
            parent = rng.choice(levels[-1]) if levels else None
            if rng.random() < MULTIWORD_SHARE:
                mod = rng.choice(modifiers)
                forms = [[mod, sing], [mod, sing + "s"]]
            else:
                forms = [[sing], [sing + "s"]]
            records.append({"class": name, "parent": parent, "forms": forms})
            parent_of[name] = parent
            level.append(name)
        levels.append(level)
    assert len(records) == N_CLASSES
    return records, parent_of


def _ancestors(name: str, parent_of: dict[str, str | None]) -> list[str]:
    out, cur = [], parent_of[name]
    while cur is not None:
        out.append(cur)
        cur = parent_of[cur]
    return out


def _model(rng: random.Random, words: list[str], size: int, alpha: float = 1.0) -> CountTable:
    """A sparse bigram count table over ``words`` (all content tokens)."""
    assert len(words) + 2 == size
    succ_ids = list(range(2, size))
    rng.shuffle(succ_ids)
    cum = _zipf_cum(len(succ_ids), 0.9)
    rows: dict[int, dict[int, int]] = {}
    for v in [0] + list(range(2, size)):
        row: dict[int, int] = {}
        for w in rng.choices(succ_ids, cum_weights=cum, k=rng.randint(8, 20)):
            row[w] = row.get(w, 0) + rng.randint(1, 40)
        if v != 0 and rng.random() < 0.5:
            row[1] = rng.randint(5, 40)
        rows[v] = row
    return CountTable(words=list(words), rows=rows, alpha=alpha)


def _place(cells: list[int], rng: random.Random) -> list[float]:
    cell = cells.pop()
    x, y = (cell % GRID_COLS) * CELL, (cell // GRID_COLS) * CELL
    w, h = rng.randint(70, 80), rng.randint(70, 80)
    ox, oy = rng.randint(5, 95 - w), rng.randint(5, 95 - h)
    return [x + ox, y + oy, x + ox + w, y + oy + h]


def _detection_record(
    rng: random.Random,
    image_id: str,
    good: list[str],
    pair_descendants: list[str],
    parent_of: dict[str, str | None],
    banned: set[str],
    blacklisted: list[str],
    distractors: list[str],
    n_repeats: int,
    top_k: int,
) -> DetectionRecord:
    """Lay detections out on a grid so that only planted pairs overlap.

    ``good`` classes get the highest plain confidences, in the given
    order; each pair puts a strict ancestor box (confidence above all
    good ones) on top of a descendant box; blacklisted classes get high
    confidence too; repeats and distractors get low confidence. The
    expected output follows from the plant markers alone.
    """
    n_items = len(good) + len(pair_descendants) + len(blacklisted) + n_repeats + len(distractors)
    cells = list(range(GRID_COLS * math.ceil(n_items / GRID_COLS)))
    rng.shuffle(cells)
    drawn = rng.sample(range(500, 9990), n_items + len(pair_descendants))
    confs = iter(v / 10000 for v in sorted(drawn, reverse=True))  # distinct, best first
    items = []  # (kind, class, descendant)

    # Ancestors and blacklisted boxes outrank every survivor.
    for desc in pair_descendants:
        anc = next(a for a in _ancestors(desc, parent_of) if a not in banned)
        items.append(("anc", anc, desc))
    for name in blacklisted:
        items.append(("black", name, None))
    ordered = []  # (class, confidence, box, dropped by the filter)
    for kind, name, desc in items:
        box = _place(cells, rng)
        ordered.append((name, next(confs), box, True))
        if kind == "anc":
            inner = [box[0] + IOU_INSET, box[1] + IOU_INSET, box[2] - IOU_INSET, box[3] - IOU_INSET]
            ordered.append((desc, None, inner, False))  # confidence set below
    for name in good:
        ordered.append((name, next(confs), _place(cells, rng), False))
    rest = list(confs)
    pending = [i for i, it in enumerate(ordered) if it[1] is None]
    for i in pending:
        name, _, box, dropped = ordered[i]
        ordered[i] = (name, rest.pop(), box, dropped)
    for _ in range(n_repeats):
        ordered.append((rng.choice(good), rest.pop(), _place(cells, rng), False))
    for name in distractors:
        ordered.append((name, rest.pop(), _place(cells, rng), False))
    rng.shuffle(ordered)

    best: dict[str, float] = {}
    for name, conf, _, dropped in ordered:
        if not dropped and conf > best.get(name, -1.0):
            best[name] = conf
    ranked = sorted(best, key=lambda n: (-best[n], n.casefold()))
    dets = [{"class": n, "score": c, "box": b} for n, c, b, _ in ordered]
    return DetectionRecord(image_id, dets, ranked[:top_k])


def _caption_text(rng: random.Random, tokens: list[str]) -> str:
    """Render tokens as a sentence; ``tokenize`` must give them back."""
    parts = []
    i = 0
    while i < len(tokens):
        if i + 1 < len(tokens) and rng.random() < 0.08:
            parts.append(tokens[i] + "-" + tokens[i + 1])
            i += 2
            continue
        word = tokens[i]
        if rng.random() < 0.1:
            word += ","
        parts.append(word)
        i += 1
    text = " ".join(parts)
    return text[0].upper() + text[1:] + "."


def _write_jsonl(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for row in rows:
            fp.write(json.dumps(row) + "\n")


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(obj, fp)


def _classes_and_model_words(rng: random.Random, words: _Words):
    hierarchy, parent_of = _hierarchy(rng, words)
    blacklist = [r["class"] for r in rng.sample(hierarchy[: DEPTH_SIZES[0]], 12)]
    blacklist += [r["class"] for r in rng.sample(hierarchy[DEPTH_SIZES[0]:], N_BLACKLIST - 12)]
    form_words = sorted({t for r in hierarchy for f in r["forms"] for t in f})
    return hierarchy, parent_of, blacklist, form_words


def _eligible_descendants(hierarchy, parent_of, blacklist) -> list[str]:
    banned = set(blacklist)
    return [
        r["class"]
        for r in hierarchy
        if r["class"] not in banned
        and any(a not in banned for a in _ancestors(r["class"], parent_of))
    ]


def generate_caption(seed: int, outdir: str, n_records: int, vocab_size: int) -> Inputs:
    """Light detection records over a hierarchy whose forms are all in a
    ``vocab_size``-token bigram model. Every record's top three classes
    hold exactly one multi-word class, so every record compiles to a
    machine of the same shape (8 mask states + 8 progress states)."""
    rng = random.Random(seed * 7919 + 1)
    words = _Words(rng)
    hierarchy, parent_of, blacklist, form_words = _classes_and_model_words(rng, words)
    fillers = [words.new() for _ in range(vocab_size - 2 - len(form_words))]
    table = _model(rng, form_words + fillers, vocab_size)
    forms = {r["class"]: r["forms"] for r in hierarchy}
    banned = set(blacklist)
    multi = [c for c in _eligible_descendants(hierarchy, parent_of, blacklist) if len(forms[c][0]) == 2]
    single = [r["class"] for r in hierarchy if r["class"] not in banned and len(forms[r["class"]][0]) == 1]

    records = []
    for i in range(n_records):
        good = [rng.choice(multi)] + rng.sample(single, 2)
        rng.shuffle(good)
        used = set(good) | {a for c in good for a in _ancestors(c, parent_of)}
        distractors = rng.sample([c for c in single if c not in used], 2)
        rec = _detection_record(
            rng, f"cap{i:04d}", good, [next(c for c in good if c in multi)],
            parent_of, banned, rng.sample(blacklist, 1), distractors, n_repeats=1, top_k=3,
        )
        assert sorted(rec.expected_labels) == sorted(good)
        records.append(rec)

    files = {
        "model": os.path.join(outdir, "model.json"),
        "hierarchy": os.path.join(outdir, "hierarchy.json"),
        "blacklist": os.path.join(outdir, "blacklist.txt"),
        "detections": os.path.join(outdir, "detections.jsonl"),
    }
    _write_json(files["model"], table.to_json())
    _write_json(files["hierarchy"], hierarchy)
    with open(files["blacklist"], "w", encoding="utf-8") as fp:
        fp.write("\n".join(blacklist) + "\n")
    _write_jsonl(files["detections"], ({"image_id": r.image_id, "detections": r.detections} for r in records))
    return Inputs(files=files, table=table, forms=forms, detections=records)


def generate_many_groups(seed: int, outdir: str, n_records: int, vocab_size: int,
                         max_len: int) -> Inputs:
    """Constraint records with six groups of 1-3-word phrases (quota 5)
    over a ``vocab_size``-token model.

    Every record has the same overlap pattern over its own distinct
    words, so every record compiles to a machine of the same shape
    (64 mask states + 256 progress states) and costs the decoder the
    same work: group g is ``[a_g]`` and ``[b_g, a_g+1]`` (which ends in
    the next group's word); group 0 also has ``[b_0, b_0, c]``, which
    overlaps itself and shares a prefix with the two-word phrase, so the
    failure edges matter.
    """
    rng = random.Random(seed * 7919 + 2)
    words = _Words(rng)
    pool = [words.new() for _ in range(60)]
    fillers = [words.new() for _ in range(vocab_size - 2 - len(pool))]
    table = _model(rng, pool + fillers, vocab_size)
    records = []
    for i in range(n_records):
        picked = rng.sample(pool, 13)
        a, b, c = picked[:6], picked[6:12], picked[12]
        groups = []
        for g in range(6):
            alts = [[a[g]], [b[g], a[(g + 1) % 6]]]
            if g == 0:
                alts.append([b[g], b[g], c])
            groups.append({"label": f"g{g}", "alternatives": alts})
        quota = 5
        shortest = sorted(min(len(alt) for alt in g["alternatives"]) for g in groups)
        assert sum(shortest[:quota]) <= max_len, "quota unreachable within max_len"
        mode = "failure" if i % 2 == 0 else "faithful"
        records.append({"image_id": f"mg{i:04d}", "min_satisfied": quota, "mode": mode, "groups": groups})
    files = {
        "model": os.path.join(outdir, "model.json"),
        "constraints": os.path.join(outdir, "constraints.jsonl"),
    }
    _write_json(files["model"], table.to_json())
    _write_jsonl(files["constraints"], records)
    return Inputs(files=files, table=table, constraints=records)


def generate_dataset(seed: int, outdir: str, n_images: int, n_dense: int,
                     n_captions: int) -> Inputs:
    """Image records with Zipf-distributed classes, dense detection
    records (about 45 boxes) and reference captions."""
    rng = random.Random(seed * 7919 + 3)
    words = _Words(rng)
    hierarchy, parent_of, blacklist, form_words = _classes_and_model_words(rng, words)
    forms = {r["class"]: r["forms"] for r in hierarchy}
    names = [r["class"] for r in hierarchy]
    banned = set(blacklist)
    allowed = [c for c in names if c not in banned]
    descendants = _eligible_descendants(hierarchy, parent_of, blacklist)

    records = []
    for i in range(n_dense):
        pairs = rng.sample(descendants, 6)
        excluded = set(pairs) | {a for c in pairs for a in _ancestors(c, parent_of)}
        free = [c for c in allowed if c not in excluded]
        picked = rng.sample(free, 20 + rng.randint(2, 6))
        good, distractors = picked[:20], picked[20:]
        n_repeats = rng.randint(4, 8)
        records.append(_detection_record(
            rng, f"dense{i:04d}", good, pairs, parent_of, banned,
            rng.sample(blacklist, 4), distractors, n_repeats, top_k=3,
        ))

    order = names[:]
    rng.shuffle(order)
    cum = _zipf_cum(len(order), 1.0)
    rotations = ["zero"] * 17 + ["nonzero", "nonzero", "unknown"]
    images = []
    for i in range(n_images):
        k = rng.choices(range(1, 9), weights=(10, 20, 20, 15, 12, 10, 7, 6))[0]
        chosen: set[str] = set()
        while len(chosen) < k:
            chosen.add(rng.choices(order, cum_weights=cum)[0])
        images.append({"image_id": f"img{i:06d}", "classes": sorted(chosen),
                       "rotation": rng.choice(rotations)})

    vocab = form_words + [words.new() for _ in range(800)]
    vcum = _zipf_cum(len(vocab), 1.0)
    rng.shuffle(vocab)
    captions, texts = [], []
    for _ in range(n_captions):
        toks = rng.choices(vocab, cum_weights=vcum, k=rng.randint(6, 14))
        captions.append(toks)
        texts.append(_caption_text(rng, toks))

    files = {
        "hierarchy": os.path.join(outdir, "hierarchy.json"),
        "blacklist": os.path.join(outdir, "blacklist.txt"),
        "detections": os.path.join(outdir, "detections.jsonl"),
        "images": os.path.join(outdir, "images.jsonl"),
        "captions": os.path.join(outdir, "captions.jsonl"),
    }
    _write_json(files["hierarchy"], hierarchy)
    with open(files["blacklist"], "w", encoding="utf-8") as fp:
        fp.write("\n".join(blacklist) + "\n")
    _write_jsonl(files["detections"], ({"image_id": r.image_id, "detections": r.detections} for r in records))
    _write_jsonl(files["images"], images)
    _write_jsonl(files["captions"], ({"caption": t} for t in texts))
    return Inputs(files=files, forms=forms, detections=records, images=images,
                  captions=captions, sample_seed=seed)
