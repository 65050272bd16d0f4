"""No source module imports a name that it does not use, and every top-level
function, class and constant of a source module is read somewhere.

The one exception to the first is a name that ``bench/tracing.py`` wraps on
that module: the tracer replaces a target at the name its caller looks up, so
the module keeps the name bound even where none of its own code reads it.

For the second, a read is an AST ``Name`` load or an attribute access by that
name anywhere in ``src``, ``tests`` or ``bench``; an import or a docstring
mention is not a read.  The match is by name only, so it finds definitions
that nothing can reach, not every one that could go.  A name the tracer wraps
counts as read (it is looked up by string), and dunder names such as
``__version__`` are package metadata, not definitions of the program.
"""

import ast
import importlib.util
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bihns"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "bench" / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _unused_imports(source: str):
    """Names bound by an import statement and never read in ``source``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - read


def test_unused_imports_are_tracer_targets():
    wrapped = {(owner.__name__.rsplit(".", 1)[-1], attr)
               for owner, attr, _, _ in _tracing().targets()
               if isinstance(owner, types.ModuleType)}
    dead = sorted(f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
                  for name in _unused_imports(path.read_text(encoding="utf-8"))
                  if (path.stem, name) not in wrapped)
    assert not dead, f"imported but unused: {dead}"


def test_unused_import_is_found():
    assert _unused_imports("import os\nimport numpy as np\nnp.zeros(1)\n") == {"os"}


def _definitions(source: str):
    """Names that the top level of ``source`` defines or assigns."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def _reads(source: str):
    """Names that ``source`` reads: ``Name`` loads and attribute names."""
    reads = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            reads.add(n.id)
        elif isinstance(n, ast.Attribute):
            reads.add(n.attr)
    return reads


def test_every_definition_is_read():
    read = {attr for _, attr, _, _ in _tracing().targets()}
    for top in ("src", "tests", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            read |= _reads(path.read_text(encoding="utf-8"))
    dead = sorted(f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
                  for name in _definitions(path.read_text(encoding="utf-8"))
                  if name not in read)
    assert not dead, f"defined but never read: {dead}"


def test_unread_definition_is_found():
    src = ('"""kept and gone"""\nimport os\nA, B = 1, 2\n'
           'def kept():\n    return A\nclass Gone:\n    pass\n')
    assert _definitions(src) == {"A", "B", "kept", "Gone"}
    assert _definitions(src) - _reads(src + "kept()\n") == {"B", "Gone"}
