import types

import curetau as ct


def test_all_lists_exactly_the_public_names():
    assert len(set(ct.__all__)) == len(ct.__all__)
    listed = {name: getattr(ct, name) for name in ct.__all__}
    assert not [name for name, value in listed.items() if isinstance(value, types.ModuleType)]
    public = {name for name in dir(ct) if not name.startswith("_")
              and not isinstance(getattr(ct, name), types.ModuleType)}
    assert public == set(listed)
    namespace = {}
    exec("from curetau import *", namespace)
    assert "np" not in namespace and "km" not in namespace
    assert set(namespace) - {"__builtins__"} == set(listed)
