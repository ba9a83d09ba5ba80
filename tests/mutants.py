"""A catalogue of planted faults, and a runner that checks the tests catch them.

Each entry names a source file, an exact snippet of it, the snippet's
faulty replacement and the test files that should fail once it is in.
The runner copies the tree to a temporary directory, plants one entry at a
time there, runs that entry's test files, and prints ``killed`` when they
fail and ``survived`` when they pass. The tree itself is never written.

    python tests/mutants.py

Pytest does not collect this file; ``tests/test_mutants.py`` checks only
that every snippet still occurs exactly once in its file.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "width without its left term",
        "src/fomo/simulation.py",
        "width = max(1, min(left, limit // rows.size,",
        "width = max(1, min(limit // rows.size,",
        ("tests/test_prng.py",),
    ),
    Mutant(
        "sighting recorded one position late",
        "src/fomo/simulation.py",
        "flat_first[new] = places[near[expanded]]",
        "flat_first[new] = places[near[expanded]] + 1",
        ("tests/test_simulation.py",),
    ),
    Mutant(
        "stamp test never reports a lost stamp",
        "src/fomo/simulation.py",
        "lost = np.flatnonzero(kept != swap)",
        "lost = np.flatnonzero(kept < 0)",
        ("tests/test_prng.py",),
    ),
    Mutant(
        "batch drops its last trial",
        "src/fomo/simulation.py",
        "batch = keys[start : start + size]",
        "batch = keys[start : start + size][: max(1, size - 1)]",
        ("tests/test_simulation.py",),
    ),
    Mutant(
        "rarest-count filter with < for <=",
        "src/fomo/simulation.py",
        "near = np.flatnonzero(rarest[docs] <= np.repeat(bound[rows], counts))",
        "near = np.flatnonzero(rarest[docs] < np.repeat(bound[rows], counts))",
        ("tests/test_simulation.py",),
    ),
    Mutant(
        "rejection test with > for >=",
        "src/fomo/simulation.py",
        "(draws.ravel()[suspects] >= 0 - excess)",
        "(draws.ravel()[suspects] > 0 - excess)",
        ("tests/test_prng.py",),
    ),
    Mutant(
        "pairwise split not rounded to a multiple of 8",
        "src/fomo/collector.py",
        "    half -= half % 8\n",
        "",
        ("tests/test_collector.py",),
    ),
    Mutant(
        "block 0 summed from index 0",
        "src/fomo/collector.py",
        "start = 1 if bits == 0 else 0",
        "start = 0",
        ("tests/test_collector.py",),
    ),
    Mutant(
        "higher-bit sign parity ignored",
        "src/fomo/collector.py",
        'if upper.bit_count() % 2:',
        "if False:",
        ("tests/test_collector.py",),
    ),
    Mutant(
        "standard deviation divided by the trial count",
        "src/fomo/collector.py",
        "/ (values.size - 1))",
        "/ values.size)",
        ("tests/test_collector.py",),
    ),
    Mutant(
        "block rule stops below the budget",
        "src/fomo/corpus.py",
        'np.searchsorted(totals, SAVE_BLOCK_BYTES, side="right")',
        'np.searchsorted(totals, SAVE_BLOCK_BYTES, side="left")',
        ("tests/test_corpus.py",),
    ),
    Mutant(
        "saved topic list spans the closing brace",
        "src/fomo/corpus.py",
        "firsts + id_sizes + len(_MIDDLE), ends - 2)",
        "firsts + id_sizes + len(_MIDDLE), ends - 1)",
        ("tests/test_corpus.py",),
    ),
    Mutant(
        "escape test without backslashes",
        "src/fomo/corpus.py",
        ' | (ids == ord("\\\\"))',
        "",
        ("tests/test_corpus.py",),
    ),
    Mutant(
        "loaded ids gathered one byte late",
        "src/fomo/corpus.py",
        "buf[_spans(buf.size, firsts, middles)]",
        "buf[_spans(buf.size, firsts + 1, middles + 1)]",
        ("tests/test_corpus.py",),
    ),
    Mutant(
        "generation skips the redraw of empty documents",
        "src/fomo/corpus.py",
        "pending = pending[~hit]",
        "pending = pending[:0]",
        ("tests/test_corpus.py",),
    ),
    Mutant(
        "saved-form topic id accepted with a leading zero",
        "src/fomo/corpus.py",
        '        or ((listed[separators - digits] == ord("0")) & (digits > 1)).any()\n',
        "",
        ("tests/test_corpus.py",),
    ),
    Mutant(
        "idptr rise check dropped",
        "src/fomo/corpus.py",
        " and not (idptr[1:] < idptr[:-1]).any()",
        "",
        ("tests/test_corpus.py",),
    ),
    Mutant(
        "start check skips each slice's last offset",
        "src/fomo/corpus.py",
        "idptr[at : min(at + BLOCK_BYTES, inner)]",
        "idptr[at : min(at + BLOCK_BYTES, inner) - 1]",
        ("tests/test_corpus.py",),
    ),
    Mutant(
        "epsilon table cut at 1e-3 in place of 1e-4",
        "src/fomo/quadpack.py",
        "if not epsinf > 1e-4:",
        "if not epsinf > 1e-3:",
        ("tests/test_quadpack.py",),
    ),
    Mutant(
        "first data row dropped after the header",
        "src/fomo/cli.py",
        "        writer.writerow(first.values())\n",
        "",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "CSV lines ended by a bare newline",
        "src/fomo/cli.py",
        'lineterminator="\\r\\n"',
        'lineterminator="\\n"',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "JSON kind without its fomo- prefix",
        "src/fomo/cli.py",
        '_write_json(args.output, f"fomo-{args.command}", rows)',
        "_write_json(args.output, args.command, rows)",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "output-path check skipping the histogram",
        "src/fomo/cli.py",
        '("out", "output", "summary_json", "histogram_csv")',
        '("out", "output", "summary_json")',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "row cap tested with >= for >",
        "src/fomo/cli.py",
        "if row_count > MAX_TABLE_ROWS:",
        "if row_count >= MAX_TABLE_ROWS:",
        ("tests/test_cli.py",),
    ),
)


def plant(mutant: Mutant, root: pathlib.Path) -> None:
    """Replace the mutant's one snippet in its file under ``root``."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.snippet) != 1:
        raise ValueError(f"{mutant.name}: the snippet must occur once in {mutant.file}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")


def killed(mutant: Mutant) -> bool:
    """Whether the mutant's tests fail on a copy of the tree with it planted.
    A run that ends otherwise than in passing or failing tests raises."""
    with tempfile.TemporaryDirectory() as workdir:
        copy = pathlib.Path(workdir)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        plant(mutant, copy)
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    if run.returncode not in (0, 1):  # 1: tests failed; anything else: they did not run
        raise RuntimeError(f"{mutant.name}: pytest exited {run.returncode}\n{run.stdout}")
    return run.returncode == 1


def main() -> int:
    """Run every entry; exit 1 if any survived."""
    survivors = 0
    for mutant in MUTANTS:
        outcome = killed(mutant)
        survivors += not outcome
        print(f"{'killed' if outcome else 'survived'}\t{mutant.name}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
