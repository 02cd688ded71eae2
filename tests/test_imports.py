"""Every module under src/clgram uses what it imports at top level, and
every private top-level function, class and constant is named somewhere
else under src/clgram.  No linter ships with the project, so these are
the unused-import and unused-definition checks; a line marked
`# noqa: F401` is a deliberate re-export.  Another check keeps the list
of functions that call themselves, and a last one the hash library out
of the process."""

import ast
import os
import subprocess
import sys
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


def references(node) -> set[str]:
    """The names `node` reads, as names, attributes or imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def private_names(node) -> list[str]:
    """The private names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unused_private(path: Path) -> list[str]:
    """The private top-level definitions of `path` that no other
    statement under src/clgram names; a definition naming itself, as a
    recursive function does, does not count."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    body = trees.pop(path).body
    elsewhere = set().union(*map(references, trees.values()))
    out = []
    for i, node in enumerate(body):
        for name in private_names(node):
            if name not in elsewhere and not any(
                    name in references(other) for j, other in enumerate(body) if j != i):
                out.append(f"{path.name}:{node.lineno}: {name}")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_private_definitions(path):
    assert unused_private(path) == []


# Walkers that still recurse once per level of a term; the list should
# only shrink.  `reader._Parser.term` is bounded by `MAX_TERM_DEPTH`.
RECURSIVE = {
    "lexicon._renamed", "reader._Parser.term", "render._text",
    "render._to_json", "render.canonical", "render.canonical_text",
    "terms._ClauseWalk.node", "terms._unify",
    "terms.copy_term",
}


def self_calling(tree: ast.Module, module: str) -> set[str]:
    """The functions and methods of `tree` that call themselves by name,
    as `f(...)` or `self.f(...)`.  Mutual recursion (`_unify` and
    `_merge_avms`, `node` and `spine`) is not seen."""
    out = set()

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for n in ast.walk(child):
                    f = n.func if isinstance(n, ast.Call) else None
                    if (isinstance(f, ast.Name) and f.id == child.name
                            or isinstance(f, ast.Attribute) and f.attr == child.name
                            and isinstance(f.value, ast.Name) and f.value.id == "self"):
                        out.add(f"{module}.{prefix}{child.name}")
                visit(child, prefix)
    visit(tree, "")
    return out


def test_recursive_walkers_are_the_known_ones():
    found = set()
    for path in SRC.glob("*.py"):
        found |= self_calling(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == RECURSIVE


def test_no_hash_library_is_imported():
    # `hashlib` loads OpenSSL, which alone raises peak RSS by about 4 MB
    code = ("import sys, clgram, clgram.cli; "
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
