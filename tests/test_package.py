import zeroforcing


def test_star_import_and_unique_exports():
    # a name left in __all__ after its definition is deleted breaks star-import
    namespace = {}
    exec("from zeroforcing import *", namespace)
    assert set(zeroforcing.__all__) <= set(namespace)
    assert len(zeroforcing.__all__) == len(set(zeroforcing.__all__))
