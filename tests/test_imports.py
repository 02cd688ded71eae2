"""Every module under src/clgram uses what it imports at top level.  No
linter ships with the project, so this is the unused-import check; a
line marked `# noqa: F401` is a deliberate re-export."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "clgram"


def unused_imports(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    lines = text.splitlines()
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:      # names re-exported through `__all__`
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            named.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}"
            for name, line in imported.items() if name not in named]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []
