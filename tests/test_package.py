"""The package namespace re-exports each submodule's public names once,
and importing the CLI stays cheap."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_leaves_scipy_unloaded():
    # scipy is most of the import time, and only the integral route needs it.
    check = "import sys, fomo.cli; assert 'scipy' not in sys.modules"
    src = str(Path(fomo.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    subprocess.run([sys.executable, "-c", check], check=True, env=env, timeout=60)
