"""The package namespace republishes each module's `__all__` and nothing else."""

import importlib
import pkgutil

import knfrag

# Five names that the modules declared public before the package
# exported them.
ADDED = ("Batch", "valuation_batches", "DEFAULT_MODEL_CAP", "DEFAULT_NODE_CAP", "clause_texts")


def test_the_package_exports_its_modules_all_in_module_order():
    modules = [importlib.import_module(f"knfrag.{info.name}")
               for info in pkgutil.iter_modules(knfrag.__path__)]
    declaring = [m for m in modules if hasattr(m, "__all__")]
    assert knfrag.__all__ == [name for m in declaring for name in m.__all__]
    assert len(knfrag.__all__) == len(set(knfrag.__all__)) == 69
    assert set(ADDED) <= set(knfrag.__all__)
    for m in declaring:
        for name in m.__all__:
            assert getattr(knfrag, name) is getattr(m, name), (m.__name__, name)


def test_a_star_import_binds_exactly_the_package_all():
    namespace = {}
    exec("from knfrag import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(knfrag.__all__)
