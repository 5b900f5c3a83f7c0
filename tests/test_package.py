"""The package's public surface."""

from types import ModuleType

import annrev


def test_all_names_no_module():
    modules = [n for n in annrev.__all__ if isinstance(getattr(annrev, n), ModuleType)]
    assert modules == []
