"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs each workload once at a small scale, confirms that every check
accepts the program's real outputs, then corrupts each kind of output
and confirms that its check rejects it. Prints one line per case and
exits non-zero if any check accepts a corrupted output or rejects a
real one.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys

from run import HERE, _import_program

_import_program()

import checks  # noqa: E402
from spans import NullTracer  # noqa: E402
from workloads import Caption, Dataset, ManyGroups, Op  # noqa: E402


class SmallCaption(Caption):
    n_records = 3
    vocab_size = 1500


class SmallManyGroups(ManyGroups):
    n_records = 2
    vocab_size = 200


class SmallDataset(Dataset):
    n_images = 3000
    target_extra = 300
    n_dense = 4
    n_captions = 300


def _run(wl, workdir: str):
    os.makedirs(workdir)
    inputs = wl.generate(7, workdir)
    st = wl.setup(inputs, NullTracer())
    return inputs, st, wl.run_pass(st, NullTracer())


def _replace(op: Op, **changes) -> Op:
    return dataclasses.replace(op, out={**op.out, **changes})


def _decode_cases(wl, inputs, st, op: Op, group_forms):
    """Corrupted copies of one decoded caption."""
    result = op.out["result"]
    vocab = st["model"].vocab
    words = list(vocab.words(vocab.strip_sentinels(result.tokens)))
    yield "logprob off by 1e-6", _replace(
        op, result=dataclasses.replace(result, logprob=result.logprob + 1e-6))
    yield "caption without the end sentinel", _replace(
        op, result=dataclasses.replace(result, tokens=result.tokens[:-1]))
    yield "state count off by one", _replace(op, states=op.out["states"] + 1)
    # Drop one word of a satisfied constraint, keeping the logprob
    # consistent with the shorter caption, so only the scan can catch it.
    for forms in group_forms:
        hit = next((f for f in forms if checks.contains(words, list(f))), None)
        if hit is None:
            continue
        cut = next(i for i in range(len(words)) if words[i:i + len(hit)] == list(hit))
        kept = words[:cut] + words[cut + 1:]
        if checks.scan_satisfied(kept, group_forms) >= result.satisfied_count:
            continue
        tokens = vocab.ids(kept) + (vocab.eos_id,)
        lp = inputs.table.caption_logprob([inputs.table.index[w] for w in kept] + [1])
        yield "caption with a constraint word removed", _replace(
            op, result=dataclasses.replace(result, tokens=tokens, logprob=lp))
        return
    raise AssertionError("no removable constraint word found")


def _sample_cases(state, images):
    by_id = {im["image_id"]: im for im in images}
    auto = len(state.selected) - len(state.trace)
    counts: dict[str, int] = {}
    for image_id in state.selected[:auto]:
        for c in by_id[image_id]["classes"]:
            counts[c] = counts.get(c, 0) + 1

    def entropy_after(cid):
        merged = dict(counts)
        for c in by_id[cid]["classes"]:
            merged[c] = merged.get(c, 0) + 1
        return checks.entropy(sum(merged.values()), sum(checks.xlogx(v) for v in merged.values()))

    later = set(state.selected)
    for j, step in enumerate(state.trace):
        best = entropy_after(step.chosen)
        worse = [c for c in step.candidates
                 if c not in later and entropy_after(c) < best - 1e-6]
        if worse:
            trace = list(state.trace)
            trace[j] = dataclasses.replace(step, chosen=worse[0])
            selected = list(state.selected)
            selected[auto + j] = worse[0]
            yield "sample step choosing a lower-entropy candidate", dataclasses.replace(
                state, trace=trace, selected=selected)
            break
        for c in by_id[step.chosen]["classes"]:
            counts[c] = counts.get(c, 0) + 1
    yield "sample with a duplicated id", dataclasses.replace(
        state, selected=state.selected[:-1] + [state.selected[0]])


def main() -> int:
    workdir = os.path.join(HERE, ".work", f"selftest-{os.getpid()}")
    failures = 0

    def expect(label: str, err, corrupted: bool) -> None:
        nonlocal failures
        ok = (err is not None) == corrupted
        failures += not ok
        verdict = "rejected" if err else "accepted"
        print(f"{'PASS' if ok else 'FAIL'}  {label}: {verdict}" + (f" ({err})" if err else ""))

    try:
        for wl in (SmallCaption(), SmallManyGroups()):
            inputs, st, ops = _run(wl, os.path.join(workdir, wl.name))
            for op in ops:
                expect(f"{wl.name} record {op.rid} as produced", wl.check(inputs, st, op), False)
            op = ops[0]
            if wl.name == "caption":
                forms = [inputs.forms[c] for c in inputs.detections[op.rid].expected_labels]
                groups = op.out["groups"]
                swapped = [groups[1], groups[0]] + groups[2:]
                expect("caption filter output in the wrong order",
                       wl.check(inputs, st, _replace(op, groups=swapped)), True)
            else:
                forms = [g["alternatives"] for g in inputs.constraints[op.rid]["groups"]]
            for label, bad in _decode_cases(wl, inputs, st, op, forms):
                expect(f"{wl.name} {label}", wl.check(inputs, st, bad), True)

        wl = SmallDataset()
        inputs, st, ops = _run(wl, os.path.join(workdir, wl.name))
        for op in ops:
            expect(f"dataset {op.kind} {op.rid} as produced", wl.check(inputs, st, op), False)
        sample_op = next(op for op in ops if op.kind == "sample")
        for label, bad in _sample_cases(sample_op.out, inputs.images):
            expect(label, wl.check(inputs, st, dataclasses.replace(sample_op, out=bad)), True)
        stats_op = next(op for op in ops if op.kind == "stats")
        bad = dict(stats_op.out)
        bad[2] += 1
        expect("n-gram count off by one",
               wl.check(inputs, st, dataclasses.replace(stats_op, out=bad)), True)
        filt = next(op for op in ops if op.kind == "record")
        dropped = filt.out["groups"][1:]
        expect("dense filter output missing its top class",
               wl.check(inputs, st, _replace(filt, groups=dropped)), True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test", "passed" if failures == 0 else f"failed ({failures} cases)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
