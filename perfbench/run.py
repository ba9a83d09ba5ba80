"""fomo benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload study --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; ``src/`` is put on PYTHONPATH,
so nothing needs installing. The workload runs in a fresh interpreter
(child.py). With ``--trace 0`` the last line of stdout is a JSON object
with every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it
holds every per-layer metric, and the spans are written to
``.bench_work/spans-<workload>-s<seed>.json``. The lines before it give
every metric with its unit and sample count, the per-command times, the
output checks, the machine and the inputs. ``--smoke`` runs every
workload at a tiny size, traced and untraced, and fails unless every
metric is printed with its unit and no command or check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170.0

# Cold starts, each in a fresh interpreter.
PROBES = {
    "setup.python_s": "pass",
    "setup.numpy_s": "import numpy",
    "setup.scipy_s": "import scipy.integrate",
    "setup.fomo_s": "import fomo.cli",
}
# Cold starts per probe: five for setup_s, three for each setup.* probe of
# a traced run, which must also fit a traced and an untraced pass.
PROBE_REPEATS = {0: 5, 1: 3}

RSS_PROBE = """
import resource, sys
from fomo.corpus import load_corpus
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
corpus = load_corpus(sys.argv[1])
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * 1024 / len(corpus))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("FOMO_THREADS", None)
    return env


def cold_start(code: str, repeats: int) -> list[float]:
    """Wall seconds for each of ``repeats`` fresh interpreters to run
    ``code`` and exit."""
    command = [sys.executable, "-c", code]
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(command, env=child_env(), check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return times


def machine() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            caches[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "mem_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": git_commit(),
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def declared_metrics(spec: dict, trace: int) -> list[dict]:
    return spec["per_layer" if trace else "end_to_end"]


def run_child(args, work: Path, result: Path, spans: Path, deadline: float) -> dict:
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tiny", str(int(args.tiny)), "--work", str(work),
        "--result", str(result), "--spans", str(spans),
    ]
    subprocess.run(command, env=child_env(), check=True, stdout=subprocess.DEVNULL,
                   timeout=max(10.0, deadline - time.monotonic()))
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def summarize(values: list[float]) -> tuple[float, int]:
    return statistics.median(values), len(values)


def untraced_metrics(raw: dict, setup: list[float]) -> tuple[dict, list[str]]:
    passes = raw["passes"]
    lines = []
    for name in passes[0]:
        value, count = summarize([p[name] for p in passes])
        lines.append(f"metric {name} {value!r} s median of {count} passes")
    value, count = summarize(setup)
    lines.append(f"metric setup_s {value!r} s median of {count} cold starts")
    peak = raw["peak_rss_kb"] / 1024
    lines.append(f"metric peak_rss_mb {peak!r} MiB peak over the first pass")
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": value,
        "peak_rss_mb": peak,
    }
    return metrics, lines


def traced_metrics(raw: dict, probes: dict, bytes_per_doc: float) -> tuple[dict, list[str]]:
    with_units = {name: tuple(pair) for name, pair in raw["layers"].items()}
    with_units["corpus.bytes_per_doc"] = (bytes_per_doc, "B/doc")
    with_units.update(
        {name: (statistics.median(times), "s") for name, times in probes.items()})
    with_units["trace.overhead_s"] = (raw["traced_wall_s"] - raw["untraced_wall_s"], "s")
    metrics = {name: value for name, (value, _) in with_units.items()}
    lines = [f"metric {name} {value!r} {unit}" for name, (value, unit) in with_units.items()]
    lines += [
        f"trace traced_wall_s {raw['traced_wall_s']!r} s "
        f"untraced_wall_s {raw['untraced_wall_s']!r} s spans {raw['spans']}",
        *(f"trace {name}.overhead_s {value!r} s"
          for name, value in raw["cli_overhead_by_command"].items()),
    ]
    return metrics, lines


def measure(args) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "fomo" / "cli.py").is_file():
        print(f"error: no fomo sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    declared = declared_metrics(benchmark_spec(), args.trace)
    tag = f"{args.workload}-s{args.seed}" + ("-tiny" if args.tiny else "")
    work = WORK / f"{tag}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    spans = WORK / f"spans-{tag}.json"
    repeats = 2 if args.tiny else PROBE_REPEATS[args.trace]
    try:
        probes = {
            name: cold_start(code, repeats)
            for name, code in PROBES.items()
            if args.trace or name == "setup.fomo_s"
        }
        raw = run_child(args, work, work / "result.json", spans, deadline)
        if args.trace:
            corpus = work / "corpus.jsonl"
            bytes_per_doc = 0.0
            if corpus.is_file():
                probe = subprocess.run(
                    [sys.executable, "-c", RSS_PROBE, str(corpus)], env=child_env(),
                    check=True, capture_output=True, text=True, timeout=120)
                bytes_per_doc = float(probe.stdout)
            metrics, lines = traced_metrics(raw, probes, bytes_per_doc)
        else:
            metrics, lines = untraced_metrics(raw, probes["setup.fomo_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = raw["checks"]
    attempted = raw["commands_attempted"] + len(checks)
    failed = raw["commands_failed"] + sum(not ok for _, ok, _ in checks)
    info = machine()
    print(f"fomo-bench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} tiny={int(args.tiny)}")
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    print("inputs " + " ".join(f"{k}={v}" for k, v in raw["params"].items()))
    for line in lines:
        print(line)
    print(f"metric error_rate {failed / attempted!r} fraction "
          f"({failed} failed of {attempted} attempted)")
    for name, ok, detail in checks:
        print(f"check {name} {'PASS' if ok else 'FAIL'} {detail}")
    if args.trace:
        print(f"spans written to {spans.relative_to(ROOT)}")
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    record = {"machine": info, "inputs": raw["params"], "checks": checks,
              "metrics": metrics, "passes": raw.get("passes"), "report": lines,
              **result}
    with open(WORK / f"result-{tag}-t{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Every workload at tiny size, untraced and traced."""
    spec = benchmark_spec()
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=300,
            )
            label = f"{workload} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            declared = declared_metrics(spec, trace)
            for metric in declared:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{label}: {metric['name']} missing or wrong unit")
            expected = [(m["name"], m["unit"]) for m in declared]
            if not trace:
                commands = Workload(workload, 0, True, ".").commands()
                expected += [(metric, "s") for metric, _ in commands]
            printed = {tuple(line.split()[1:4:2]) for line in lines
                       if line.startswith("metric ")}
            problems += [f"{label}: no line for {name} in {unit}"
                         for name, unit in expected if (name, unit) not in printed]
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} failed")
            if not any(line.startswith("metric error_rate 0.0 ") for line in lines):
                problems.append(f"{label}: error_rate not printed as 0")
            print(f"{label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} attempted, {result['failed']} failed")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("study", "ingest", "collector"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for --smoke")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
