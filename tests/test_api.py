"""The package's public names."""

import isacnet


def test_every_exported_name_resolves():
    missing = [name for name in isacnet.__all__ if not hasattr(isacnet, name)]
    assert missing == []
    assert len(set(isacnet.__all__)) == len(isacnet.__all__)
