"""No source module imports a name that it does not use.

The one exception is a name that ``bench/tracing.py`` wraps on that module:
the tracer replaces a target at the name its caller looks up, so the module
keeps the name bound even where none of its own code reads it.
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
