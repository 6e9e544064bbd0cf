import ast
import doctest
import os
import subprocess
import sys
from pathlib import Path

import zeroforcing


def test_star_import_and_unique_exports():
    # a name left in __all__ after its definition is deleted breaks star-import
    namespace = {}
    exec("from zeroforcing import *", namespace)
    assert set(zeroforcing.__all__) <= set(namespace)
    assert len(zeroforcing.__all__) == len(set(zeroforcing.__all__))


def test_cli_import_leaves_dataclasses_unloaded():
    # every zeroforcing process pays for this import before it reads a
    # graph; dataclasses alone pulls in inspect, dis, ast and tokenize.
    # -S keeps a site hook from loading it first.
    root = Path(__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    probe = ("import sys, zeroforcing.cli\n"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, cwd=root,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    example = doctest.DocTestParser().get_doctest(block, {}, "README.md", "README.md", 0)
    assert len(example.examples) == 7
    assert doctest.DocTestRunner().run(example) == (0, 7)


def _unread_imports(source: str) -> list[str]:
    """Names a module imports and never reads; a name listed in __all__
    counts as read.  Scopes are not told apart."""
    tree = ast.parse(source)
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {e.value for e in node.value.elts}
    return sorted(imported - read)


def test_unread_imports_are_caught():
    source = "import os.path\nfrom a import b, c as d\n__all__ = ['b']\n"
    assert _unread_imports(source) == ["d", "os"]
    assert _unread_imports(source + "print(os.sep, d)\n") == []


def test_no_module_imports_a_name_it_never_reads():
    root = Path(__file__).parents[1]
    paths = sorted([*root.glob("src/zeroforcing/*.py"), *root.glob("tests/*.py")])
    assert len(paths) > 15
    unread = {str(path.relative_to(root)): names for path in paths
              if (names := _unread_imports(path.read_text(encoding="utf-8")))}
    assert unread == {}
