"""The package's public names."""

import blockrange


def test_all_is_sorted_unique_and_resolves():
    names = blockrange.__all__
    assert names == sorted(set(names))
    missing = [n for n in names if not hasattr(blockrange, n)]
    assert not missing
