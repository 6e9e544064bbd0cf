import doctest
from pathlib import Path

import zeroforcing


def test_star_import_and_unique_exports():
    # a name left in __all__ after its definition is deleted breaks star-import
    namespace = {}
    exec("from zeroforcing import *", namespace)
    assert set(zeroforcing.__all__) <= set(namespace)
    assert len(zeroforcing.__all__) == len(set(zeroforcing.__all__))


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    example = doctest.DocTestParser().get_doctest(block, {}, "README.md", "README.md", 0)
    assert len(example.examples) == 7
    assert doctest.DocTestRunner().run(example) == (0, 7)
