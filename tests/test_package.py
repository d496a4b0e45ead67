"""The package's public names."""

import graphpde


def test_all_names_resolve_once():
    names = graphpde.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(graphpde, name)]
    assert missing == []
