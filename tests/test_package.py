"""The package namespace re-exports each submodule's public names once."""

import fomo
from fomo import analytic, collector, corpus, simulation

SUBMODULES = (analytic, collector, corpus, simulation)


def test_all_joins_the_submodule_lists():
    joined = ["__version__"] + [name for m in SUBMODULES for name in m.__all__]
    assert fomo.__all__ == joined


def test_all_has_no_duplicates():
    # A name exported by two submodules would be shadowed by the later
    # star import without any error.
    assert len(set(fomo.__all__)) == len(fomo.__all__)


def test_every_name_resolves():
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(fomo, name) is getattr(module, name)
    assert isinstance(fomo.__version__, str)
