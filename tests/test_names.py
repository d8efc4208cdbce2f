"""Every module-level function and class of ``src/godspell`` is read
somewhere in ``src/``: a name that only tests read belongs in
``tests/oracles.py``, beside the code it checks, not in the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "godspell"

# the names src/ does not read, each with why it stays
UNREAD_BY_SRC = {
    "annotate.run_pipeline": "bench/layers.py runs its concurrency and local-cost probes on it",
    "corpus.read_passages": "bench/layers.py reads the probes' passages through it",
    "corpus.segment_corpus_fixed": "bench/workloads.py cuts the topics-k65 corpus with it",
    "topics.build_vocabulary": "bench/workloads.py counts the topics-k65 tokens with it",
    "stats.t_cdf": "ROADMAP item 7's interval for g inverts it",
}


def test_every_module_level_name_is_read_in_src():
    defined, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    unread = {qualified for qualified, name in defined.items() if name not in read}
    assert unread == set(UNREAD_BY_SRC)
