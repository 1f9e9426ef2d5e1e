"""Quick self-test of the benchmark; not part of the tier-1 suite.

    python3 bench/smoke.py

Checks that the input generator is deterministic (same seed, same bytes;
another seed, other bytes), that every workload emits exactly the
end-to-end and per-layer metrics BENCHMARK.json names, with their units,
and that the benchmark refuses to run without the program's sources.
Exits 0 when all checks pass.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS  # noqa: E402


def generated(name, seed, d):
    workload = WORKLOADS[name](types.SimpleNamespace(seed=seed, smoke=False))
    workload.generate(d)
    return sorted(os.listdir(d))


def check_determinism(tmp):
    problems = []
    for name in WORKLOADS:
        dirs = [os.path.join(tmp, f"{name}-{i}") for i in range(3)]
        for d in dirs:
            os.makedirs(d)
        files = [generated(name, seed, d) for seed, d in zip((5, 5, 6), dirs)]
        if files[0] != files[1] or not files[0]:
            problems.append(f"{name}: file lists differ for one seed")
            continue
        _, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], files[0], shallow=False)
        if mismatch or errors:
            problems.append(f"{name}: same seed gave different bytes in {mismatch + errors}")
        _, mismatch, _ = filecmp.cmpfiles(dirs[0], dirs[2], files[0], shallow=False)
        if not mismatch:
            problems.append(f"{name}: another seed gave the same files")
    return problems


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_emission(spec):
    problems = []
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "3",
                    "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = last_json(proc.stdout)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} operations failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json {key}: "
                                f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
            bad = [k for k, v in result["metrics"].items() if not isinstance(v["value"], (int, float))]
            if bad:
                problems.append(f"{label}: non-numeric values for {bad}")
    return problems


def check_refuses_without_program(tmp):
    """In a directory with only BENCHMARK.json and bench/, the run must fail without a result."""
    bare = os.path.join(tmp, "bare")
    shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    argv = [sys.executable, "bench/run.py", "--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"run without the program exited {proc.returncode} and printed {proc.stdout.strip()[-200:]!r}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="smoke-", dir=os.path.join(HERE, "work"))
    try:
        problems = check_determinism(tmp) + check_refuses_without_program(tmp) + check_emission(spec)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
