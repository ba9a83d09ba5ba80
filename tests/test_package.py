"""The package namespace re-exports each submodule's public names once,
importing the CLI stays cheap, no command loads scipy, every cap has its
row in the README, no module reads the environment, none builds an
unchecked instance, one function owns trial batches, one starts threads,
one sizes byte grids and one opens the CLI's outputs."""

import ast
import importlib
import os
import re
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


def run_python(code, cwd=None):
    """Run ``code`` in a fresh interpreter that imports this fomo."""
    src = str(Path(fomo.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=cwd, timeout=60)


def test_cli_import_leaves_scipy_unloaded():
    # scipy would be most of the import time, and no command needs it.
    run_python("import sys, fomo.cli; assert 'scipy' not in sys.modules")


def test_no_module_imports_scipy():
    # The sum route integrates with fomo.quadpack, a port of the QUADPACK
    # routine scipy's quad wraps; scipy is a test dependency only.
    package = Path(fomo.__file__).parent
    imports = [
        f"{source.name}:{node.lineno}"
        for source in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "scipy" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy")
    ]
    assert imports == []


def test_compare_and_the_sum_route_leave_scipy_unloaded(tmp_path):
    run_python(
        "import contextlib, io, sys\n"
        "from fomo.cli import main\n"
        "commands = [\n"
        "    ['gen-corpus', '--docs', '300', '--topics', '6', '--max-prev', '0.5',\n"
        "     '--min-prev', '0.02', '--seed', '3', '--out', 'small.jsonl'],\n"
        "    ['simulate', '--corpus', 'small.jsonl', '--trials', '50', '--seed', '4',\n"
        "     '--summary-json', 'summary.json'],\n"
        "    ['compare', '--corpus', 'small.jsonl', '--summary', 'summary.json'],\n"
        "    ['collector', '--uniform', '365', '--method', 'sum'],\n"
        "]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert [main(argv) for argv in commands] == [0, 0, 0, 0]\n"
        "assert 'scipy' not in sys.modules",
        cwd=tmp_path,
    )


def test_cli_import_leaves_concurrent_futures_unloaded():
    # No module uses a thread pool: prng._map_in_order starts its own
    # threads, so no command loads concurrent.futures.
    run_python("import sys, fomo.cli; assert 'concurrent.futures' not in sys.modules")


def test_one_owner_of_threads():
    # prng._map_in_order alone starts threads, and no module imports
    # concurrent.futures; a second owner would run blocks without its
    # order, error and interrupt rules.
    package = Path(fomo.__file__).parent
    starters, pools = [], []
    for source in sorted(package.glob("*.py")):
        for statement in ast.parse(source.read_text(encoding="utf-8")).body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Call) and "Thread" in (
                    getattr(node.func, "attr", None), getattr(node.func, "id", None)
                ):
                    starters.append(f"{source.stem}.{getattr(statement, 'name', None)}")
                if isinstance(node, ast.Import):
                    pools += [alias.name for alias in node.names]
                if isinstance(node, ast.ImportFrom):
                    pools.append(node.module or "")
    assert starters == ["prng._map_in_order"]
    assert [name for name in pools if name.startswith("concurrent")] == []


def test_one_opener_of_cli_outputs():
    # cli._open_output alone opens a file to write, and _check_outputs only
    # probes each path; a handler that opened its own output would write a
    # report past the one CSV and JSON writer in main.
    source = Path(fomo.__file__).with_name("cli.py")
    writes = []
    for statement in ast.parse(source.read_text(encoding="utf-8")).body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                modes = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
                mode = ast.literal_eval(modes[0]) if modes else "r"
                if set(mode) & set("wax+"):
                    writes.append(f"{statement.name}:{mode}")
    assert writes == ["_open_output:w", "_check_outputs:xb", "_check_outputs:ab"]


def test_no_module_reads_the_environment():
    # A run is set by its arguments alone: no environment variable, such
    # as a thread count, may change what or how it computes.
    package = Path(fomo.__file__).parent
    reads = [
        f"{source.name}:{node.lineno}"
        for source in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv"))
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and {"environ", "environb", "getenv"} & {alias.name for alias in node.names})
    ]
    assert reads == []


def test_no_module_calls_object_new():
    # object.__new__ builds an instance without __post_init__, so no rule
    # a constructor checks would hold for it.
    package = Path(fomo.__file__).parent
    calls = [
        f"{source.name}:{node.lineno}"
        for source in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    ]
    assert calls == []


def test_one_owner_of_trial_batches():
    # _first_positions alone plans lockstep batches and shuffles them; a
    # second caller would size or run its batches another way.
    package = Path(fomo.__file__).parent
    calls = [
        node.func.id
        for source in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    assert (calls.count("_batch_plan"), calls.count("fisher_yates")) == (1, 1)


def test_one_rule_for_byte_grids():
    # _grid_rows alone sizes the byte grids that save_corpus writes and
    # _id_array reads; a rule of their own would size them another way.
    package = Path(fomo.__file__).parent
    callers = [
        function.name
        for source in sorted(package.glob("*.py"))
        for function in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_grid_rows"
    ]
    assert sorted(callers) == ["_id_array", "save_corpus"]


def test_every_benchmark_hook_resolves():
    # perfbench/child.py imports names from fomo and rebinds the layer
    # entry points that layer_targets lists; a name gone from fomo would
    # make every traced benchmark run fail.
    check = (
        "import sys; sys.path.insert(0, '.'); import child\n"
        "targets = child.layer_targets({})\n"
        "missing = [f'{m.__name__}.{n}' for m, n, *_ in targets if not hasattr(m, n)]\n"
        "assert targets and not missing, missing"
    )
    run_python(check, cwd=Path(__file__).parents[1] / "perfbench")


def test_every_name_the_readme_cites_resolves():
    # README cites module attributes as `module.NAME` or `fomo.module.NAME`;
    # a name moved or renamed must take its citations along.
    package = Path(fomo.__file__).parent
    readme = (package.parents[1] / "README.md").read_text(encoding="utf-8")
    modules = {source.stem for source in package.glob("*.py")}
    cited = {
        (module, name)
        for module, name in re.findall(r"`(?:fomo\.)?(\w+)\.(\w+)`", readme)
        if module in modules
    }
    assert len(cited) >= 25
    missing = [
        f"{module}.{name}"
        for module, name in sorted(cited)
        if not hasattr(importlib.import_module(f"fomo.{module}"), name)
    ]
    assert missing == []


def test_every_cap_has_a_size_drivers_row():
    # A module-level MAX_* or *_LIMIT constant caps some input; README's
    # "Size drivers" table names each as module.NAME, so none lands unlisted.
    package = Path(fomo.__file__).parent
    readme = (package.parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Size drivers", 1)[1].split("\n#", 1)[0]
    caps = [
        f"{source.stem}.{target.id}"
        for source in sorted(package.glob("*.py"))
        for node in ast.parse(source.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and re.fullmatch(r"_?MAX_\w+|\w+_LIMIT", target.id)
    ]
    assert len(caps) >= 10
    assert [cap for cap in caps if f"`{cap}`" not in table] == []
