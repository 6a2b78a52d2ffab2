import types

import supconc


def test_all_holds_exactly_the_public_names():
    # a name dropped from a module but left in __all__ fails here, and so
    # does a public name exported without being listed
    assert len(set(supconc.__all__)) == len(supconc.__all__)
    for name in supconc.__all__:
        assert hasattr(supconc, name), name
    namespace = {}
    exec("from supconc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(supconc.__all__)
    public = {name for name, value in vars(supconc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(supconc.__all__) == public
