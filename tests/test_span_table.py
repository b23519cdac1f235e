"""The baseline benchmark's span table still names real entry points.

``benchmarks/baseline/spans.py`` times layers by swapping the names in
its ``WRAPPERS`` table — ``(importing module, attribute path, span name,
kind)`` — for timing wrappers at run time, so a rename under ``src/``
breaks the benchmark's traced passes. This reads the table without
executing the file (its literal is parsed) and resolves every entry
against the package, so a rename fails here in seconds.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "baseline" / "spans.py"


def wrappers() -> list[tuple[str, str, str, str]]:
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPERS table in {SPANS}")


def resolve(module: str, path: str):
    owner = importlib.import_module(module)
    for name in path.split("."):
        owner = getattr(owner, name)
    return owner


def test_table_is_not_empty():
    assert len(wrappers()) >= 20


@pytest.mark.parametrize(
    "module,path,span,kind", wrappers(), ids=[f"{m}:{p}" for m, p, _, _ in wrappers()]
)
def test_entry_resolves(module, path, span, kind):
    assert callable(resolve(module, path))
    assert kind in ("call", "gen", "submit")
    # the wrapper is installed on the owner's own attribute (``vars``)
    *parents, attr = path.split(".")
    owner = resolve(module, ".".join(parents)) if parents else importlib.import_module(module)
    assert attr in vars(owner)


def test_dataset_reads_through_query_file():
    """``bat.query`` spans time the dataset's one read call."""
    import repro.bat.query as query
    import repro.core.dataset as dataset

    assert dataset.query_file is query.query_file
    assert dataset.stream_query_file is query.stream_query_file
