import inspect

import cb2cf


def test_every_public_name_imports_and_is_callable_or_a_class():
    assert len(set(cb2cf.__all__)) == len(cb2cf.__all__)
    namespace: dict = {}
    exec("from cb2cf import *", namespace)
    for name in cb2cf.__all__:
        obj = namespace[name]
        assert inspect.isclass(obj) or callable(obj), name
