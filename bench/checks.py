"""Output checks, each against a computation made apart from lexbeam.

Every check returns ``None`` when the output is right and a one-line
reason when it is not. They run after the timed passes and read the
program's outputs only through plain attributes; none of them calls
back into lexbeam.
"""

from __future__ import annotations

import math

LOGPROB_RTOL = 1e-9
ENTROPY_TOL = 1e-9


def contains(seq: list[str], phrase: list[str]) -> bool:
    n = len(phrase)
    return any(seq[i:i + n] == phrase for i in range(len(seq) - n + 1))


def scan_satisfied(words: list[str], group_forms: list[list[list[str]]]) -> int:
    """Groups with some alternative occurring contiguously in ``words``."""
    return sum(1 for forms in group_forms if any(contains(words, list(f)) for f in forms))


def expected_states(group_forms: list[list[list[str]]]) -> int:
    """2^n mask states plus (L - 1) * 2^(n-1) per alternative of length L."""
    n = len(group_forms)
    alts = [{tuple(f) for f in forms} for forms in group_forms]
    return 2 ** n + sum((len(a) - 1) * 2 ** (n - 1) for group in alts for a in group)


def check_groups(groups, expected_labels: list[str], forms: dict) -> str | None:
    """Filter output: the planted top classes, in order, each expanded
    into its word forms."""
    labels = [g.label for g in groups]
    if labels != expected_labels:
        return f"filter labels {labels} != planted {expected_labels}"
    for g in groups:
        want = {tuple(f) for f in forms[g.label]}
        if set(g.alternatives) != want:
            return f"group {g.label} alternatives {g.alternatives} != forms {sorted(want)}"
    return None


def check_decode(words: list[str], tokens: tuple, logprob: float, satisfied: int,
                 eos_id: int, table, group_forms, quota: int, faithful: bool,
                 state_count: int) -> str | None:
    """One decoded caption. ``words`` are the content tokens rendered by
    the program's vocabulary; ``table`` is the generator's count table."""
    if not tokens or tokens[-1] != eos_id:
        return "caption does not end in the end sentinel"
    if not math.isfinite(logprob):
        return f"logprob {logprob} is not finite"
    try:
        ids = [table.index[w] for w in words] + [1]
    except KeyError as exc:
        return f"caption word {exc} is not in the generated vocabulary"
    want = table.caption_logprob(ids)
    if abs(logprob - want) > LOGPROB_RTOL * abs(want):
        return f"logprob {logprob!r} != recomputed {want!r}"
    scanned = scan_satisfied(words, group_forms)
    if faithful and satisfied > scanned:
        return f"satisfied {satisfied} > substring scan {scanned} (faithful)"
    if not faithful and satisfied != scanned:
        return f"satisfied {satisfied} != substring scan {scanned}"
    if satisfied < quota:
        return f"satisfied {satisfied} below quota {quota}"
    want_states = expected_states(group_forms)
    if state_count != want_states:
        return f"state_count {state_count} != formula {want_states}"
    return None


def entropy(total: int, s: float) -> float:
    """Entropy of counts with sum ``total`` and sum of c*ln(c) ``s``."""
    return math.log(total) - s / total if total else 0.0


def xlogx(c: int) -> float:
    return c * math.log(c) if c > 0 else 0.0


def check_sample(state, images: list[dict], target_extra: int, n_candidates: int) -> str | None:
    """Eligibility, auto-include order and, at every step, the entropy
    argmax with ties to the smallest id. Entropy is kept incrementally:
    H = ln T - (sum c ln c) / T over the running class counts."""
    by_id = {im["image_id"]: im for im in images}
    auto = [im["image_id"] for im in images
            if im["rotation"] == "zero" and len(im["classes"]) >= 7]
    eligible = {im["image_id"] for im in images
                if im["rotation"] == "zero" and 2 <= len(im["classes"]) <= 6}
    selected = list(state.selected)
    if len(set(selected)) != len(selected):
        return "selected ids are not unique"
    if selected[:len(auto)] != auto:
        return "selection does not start with the auto-included images in input order"
    if len(selected) != len(auto) + target_extra or len(state.trace) != target_extra:
        return f"selected {len(selected)} images in {len(state.trace)} steps, wanted {len(auto)} + {target_extra}"
    if not set(selected[len(auto):]) <= eligible:
        return "a sampled image is not eligible"

    counts: dict[str, int] = {}
    for image_id in auto:
        for c in by_id[image_id]["classes"]:
            counts[c] = counts.get(c, 0) + 1
    total = sum(counts.values())
    s = sum(xlogx(c) for c in counts.values())
    taken = set(auto)
    for j, step in enumerate(state.trace):
        if step.chosen != selected[len(auto) + j]:
            return f"step {j}: chosen {step.chosen} is not selected[{len(auto) + j}]"
        if not 1 <= len(step.candidates) <= n_candidates or step.chosen not in step.candidates:
            return f"step {j}: bad candidate list"
        scored = []
        for cid in step.candidates:
            classes = by_id[cid]["classes"]
            if cid in taken or cid not in eligible or len(classes) != step.pool:
                return f"step {j}: candidate {cid} not in pool {step.pool}"
            pre = sorted(counts.get(c, 0) for c in classes)
            gain = sum(xlogx(c + 1) - xlogx(c) for c in pre)
            scored.append((entropy(total + len(pre), s + gain), tuple(pre), cid))
        best = max(h for h, _, _ in scored)
        h_chosen, key_chosen, _ = next(x for x in scored if x[2] == step.chosen)
        if h_chosen < best - ENTROPY_TOL:
            return f"step {j}: chosen {step.chosen} has entropy {h_chosen!r} < best {best!r}"
        # Equal pre-count multisets give exactly equal entropies: a tie.
        tied = [cid for h, key, cid in scored if key == key_chosen]
        if min(tied) != step.chosen:
            return f"step {j}: tie not broken toward the smallest id"
        for c in by_id[step.chosen]["classes"]:
            n = counts.get(c, 0)
            s += xlogx(n + 1) - xlogx(n)
            counts[c] = n + 1
        total += len(by_id[step.chosen]["classes"])
        taken.add(step.chosen)
    if counts != dict(state.class_counts):
        return "class counts differ from a recount of the selection"
    return None


def recount_ngrams(captions: list[list[str]], n_max: int) -> dict[int, int]:
    return {
        n: len({gram for toks in captions for gram in zip(*(toks[i:] for i in range(n)))})
        for n in range(1, n_max + 1)
    }


def check_ngrams(counts: dict[int, int], expected: dict[int, int]) -> str | None:
    if dict(counts) != expected:
        return f"n-gram counts {dict(counts)} != recount {expected}"
    return None
