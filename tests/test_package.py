"""The package's export list names only what the package defines."""

import spiked_pca as sp


def test_star_import_gives_every_exported_name():
    namespace = {}
    # raises AttributeError if an entry of __all__ names nothing
    exec("from spiked_pca import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(set(sp.__all__))
    assert len(sp.__all__) == len(set(sp.__all__))
