import inspect

import corrweave


def test_public_names_resolve_once():
    names = corrweave.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(corrweave, n)] == []


def test_public_names_match_the_imports():
    imported = {n for n, v in vars(corrweave).items()
                if not n.startswith("_") and not inspect.ismodule(v)}
    assert imported == set(corrweave.__all__)
