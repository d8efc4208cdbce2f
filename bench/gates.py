"""Correctness gates: each returns a list of problems, empty when it passes.

A workload's figures count only when its gate passes, so a change that
alters the outputs cannot report a speed-up.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import stub


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def golden_tree(out_dir: Path, golden_dir: Path) -> list[str]:
    """The output tree, cache excluded, equals the golden tree byte for byte."""
    def files(root: Path) -> set[str]:
        return {
            p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file() and "cache" not in p.relative_to(root).parts
        }

    produced, golden = files(out_dir), files(golden_dir)
    problems = [f"missing {rel}" for rel in sorted(golden - produced)]
    problems += [f"unexpected {rel}" for rel in sorted(produced - golden)]
    problems += [
        f"{rel} differs from golden" for rel in sorted(golden & produced)
        if (out_dir / rel).read_bytes() != (golden_dir / rel).read_bytes()
    ]
    return problems


def topic_state(
    path: Path,
    k: int,
    sweeps: int,
    doc_lens: list[int],
    expected_sha256: str | None = None,
) -> list[str]:
    """Count identities of a saved topic state, and its digest if one is given.

    ``state.json`` holds ``n_kw`` and the smoothed proportions
    ``doc_topic[d][k] = (n_dk + alpha_k) / (L_d + sum(alpha))``. With the
    document lengths ``L_d`` known, ``n_dk`` is recovered from them; it must
    be a non-negative integer matrix whose topic totals equal the row sums
    of ``n_kw``, whose grand total equals the token count.
    """
    try:
        state = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return [f"unreadable state: {e}"]
    problems = []
    vocabulary = state.get("vocabulary", [])
    n_kw = state.get("n_kw", [])
    alpha = state.get("alpha", [])
    doc_topic = state.get("doc_topic", [])
    if state.get("k") != k or len(n_kw) != k or len(alpha) != k:
        return [f"expected K={k}, got k={state.get('k')} with {len(n_kw)} rows"]
    if vocabulary != sorted(set(vocabulary)):
        problems.append("vocabulary is not sorted and unique")
    if any(len(row) != len(vocabulary) for row in n_kw):
        problems.append("n_kw rows do not span the vocabulary")
    if any(not isinstance(c, int) or c < 0 for row in n_kw for c in row):
        problems.append("n_kw holds a negative or non-integer count")
    topic_totals = [sum(row) for row in n_kw]
    if sum(topic_totals) != sum(doc_lens):
        problems.append(f"n_kw sums to {sum(topic_totals)}, expected {sum(doc_lens)} tokens")
    if not all(a > 0 for a in alpha) or not state.get("beta", 0) > 0:
        problems.append("non-positive prior")
    if len(doc_topic) != len(doc_lens) or len(state.get("doc_novels", [])) != len(doc_lens):
        problems.append(f"expected {len(doc_lens)} documents, got {len(doc_topic)}")
    else:
        alpha_sum = sum(alpha)
        recovered = [0] * k
        bad = None
        for d, (row, length) in enumerate(zip(doc_topic, doc_lens)):
            for t, share in enumerate(row):
                n = share * (length + alpha_sum) - alpha[t]
                if abs(n - round(n)) > 1e-6 or round(n) < 0:
                    bad = f"doc {d} topic {t}: recovered count {n} is not a count"
                    break
                recovered[t] += round(n)
            if bad:
                break
        if bad:
            problems.append(bad)
        elif recovered != topic_totals:
            problems.append("document-topic counts disagree with topic-word counts")
    lls = state.get("log_likelihood", [])
    if len(lls) != sweeps or not all(math.isfinite(x) for x in lls):
        problems.append(f"expected {sweeps} finite log-likelihoods, got {lls!r:.80}")
    if expected_sha256 is not None:
        digest = sha256_file(path)
        if digest != expected_sha256:
            problems.append(f"state sha256 {digest} != committed {expected_sha256}")
    return problems


def expected_annotation(passage: dict) -> dict:
    """The verdict fields the stub's rule implies for one passage."""
    stage1 = stub.rule(stub.STAGE1, passage["text"])
    stage2 = stub.rule(stub.STAGE2, passage["text"]) if stage1["label"] == "YES" else None
    final = "YES" if stage2 is not None and stage2["label"] == "YES" else "NO"
    affect = impact = None
    if final == "YES":
        affect = stub.rule(stub.AFFECT, stage1["act_description"])["god_affect"]
        impact = stub.rule(stub.IMPACT, stage1["act_description"])["god_impact"]
    return {
        "passage": f"{passage['novel_id']}:{passage['index']}",
        "status": "ok",
        "stage1": stage1,
        "stage2": stage2,
        "final_label": final,
        "affect": affect,
        "impact": impact,
    }


def stub_labels(annotations_path: Path, passages_path: Path) -> list[str]:
    """One problem per passage that is missing, unresolved, or labelled
    otherwise than the stub's rule implies."""
    passages = _jsonl(passages_path)
    try:
        annotations = _jsonl(annotations_path)
    except (OSError, ValueError) as e:
        return [f"unreadable annotations: {e}"]
    if len(annotations) != len(passages):
        return [f"{len(annotations)} annotations for {len(passages)} passages"]
    problems = []
    for passage, got in zip(passages, annotations):
        want = expected_annotation(passage)
        wrong = [key for key, value in want.items() if got.get(key) != value]
        if wrong:
            problems.append(f"{want['passage']}: {', '.join(wrong)} differ")
    return problems


def _jsonl(path: Path) -> list[dict]:
    with Path(path).open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
