import types

import zsindex


def test_every_export_resolves():
    for name in zsindex.__all__:
        assert hasattr(zsindex, name), name
    assert len(set(zsindex.__all__)) == len(zsindex.__all__)


def test_every_public_attribute_is_exported():
    public = {
        name
        for name, value in vars(zsindex).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(zsindex.__all__)
