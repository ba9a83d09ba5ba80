"""The outputs the docs call portable, under a second SIMD dispatch level.

numpy picks each ufunc's kernel by the CPU's SIMD extensions, and reads
``NPY_DISABLE_CPU_FEATURES`` once, at import, for that process alone. A
child process with the AVX-512 kernels turned off generates the study
corpus, runs the byte manifest's cases on it and the pinned collector
inputs, and must print what this process's kernels recorded. The sum
route's pins and its manifest entries are among them: they hold on this
CPU, though the route's last bits can follow the kernels (see README).

Run as a script, this file prints the child's outputs as JSON.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from byte_manifest import MANIFEST, run_cases
from numpy._core._multiarray_umath import __cpu_features__
from test_acceptance import (
    STUDY_DOCS, STUDY_GEN_SEED, STUDY_MAX_PREV, STUDY_MIN_PREV, STUDY_TOPICS
)
from test_collector import PINNED_EXACT, PINNED_MONTE_CARLO, PINNED_SUM

import fomo
from fomo.collector import (
    expected_draws_unequal_exact, expected_draws_unequal_sum, simulate_expected_draws
)
from fomo.corpus import generate_corpus, zipf_prevalences

# The features the child turns off; X86_V4 takes AVX512_SKX with it.
DISABLED = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
TURNED_OFF = ("AVX512_SKX", *DISABLED[1:])


def exp_digest():
    """SHA-256 of np.exp on [-700, -100], where the AVX-512 kernel and the
    AVX2 one differ by up to 1,024 ULP."""
    return hashlib.sha256(np.exp(np.linspace(-700.0, -100.0, 4097)).tobytes()).hexdigest()


def monte_carlo_hexes(dist, trials, seed):
    """The sampler's mean and standard error as float.hex()."""
    sample = simulate_expected_draws(dist, trials, seed)
    return [sample.mean.hex(), sample.std_error.hex()]


def outputs():
    """Everything the child checks, run in the current directory."""
    dist = zipf_prevalences(STUDY_TOPICS, STUDY_MAX_PREV, STUDY_MIN_PREV)
    study = generate_corpus(STUDY_DOCS, dist, seed=STUDY_GEN_SEED)
    return {
        "features": {name: __cpu_features__[name] for name in TURNED_OFF},
        "exp": exp_digest(),
        "manifest": run_cases(study),
        "exact": {k: expected_draws_unequal_exact(d).hex() for k, (d, _) in PINNED_EXACT.items()},
        "sum": {k: expected_draws_unequal_sum(p).hex() for k, (p, _) in PINNED_SUM.items()},
        "montecarlo": {k: monte_carlo_hexes(*pin[:3]) for k, pin in PINNED_MONTE_CARLO.items()},
    }


@pytest.mark.skipif(
    not all(__cpu_features__.get(name) for name in DISABLED),
    reason=f"the CPU lacks one of {', '.join(DISABLED)}: no second dispatch level to test",
)
def test_portable_outputs_match_without_avx512(tmp_path):
    # The script's own directory, tests/, is on the child's path already.
    path = [str(pathlib.Path(fomo.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": " ".join(DISABLED),
        "PYTHONPATH": os.pathsep.join(filter(None, path)),
    }
    child = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve())],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    seen = json.loads(child.stdout)
    # The child ran other kernels: its features are off and exp's bits moved.
    assert seen["features"] == dict.fromkeys(TURNED_OFF, False)
    assert seen["exp"] != exp_digest()
    assert seen["manifest"] == json.loads(MANIFEST.read_text())
    assert seen["exact"] == {k: pin for k, (_, pin) in PINNED_EXACT.items()}
    assert seen["sum"] == {k: pin for k, (_, pin) in PINNED_SUM.items()}
    assert seen["montecarlo"] == {k: list(pin[3:5]) for k, pin in PINNED_MONTE_CARLO.items()}


if __name__ == "__main__":
    print(json.dumps(outputs()))
