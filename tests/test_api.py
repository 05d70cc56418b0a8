"""The package's export list, so that a deleted name fails here first."""

import alignrepair


def test_all_is_sorted_unique_and_resolves():
    names = alignrepair.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(alignrepair, name)]
    assert missing == []
