"""One benchmark run: set-up, the timed closed loop, checks and the result line."""

import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from statistics import median
from time import perf_counter

import numpy as np

import layers
from pace import Pace
from spans import Tracer
from workloads import WORKLOADS

SUBPROCESS_TIMEOUT_S = 120
# Pace slices taken between two set-ups, which are too long to hold any.
SETUP_SLICES = 3


class Run:
    """State shared by a workload's operations: ids, failures, output paths."""

    def __init__(self, args, root, work, results_dir):
        self.seed = args.seed
        self.results_dir = results_dir
        self.smoke = args.smoke
        self.root = root
        self.work = work
        self.tracer = Tracer()
        self.pace = Pace()
        self.op_id = 0
        self.op_kind = {}
        self.failed_ops = set()
        self.messages = []
        self.tie_reorders = 0
        self.op_times = {}  # kind -> durations of the successful operations
        self.op_spans = {}  # kind -> (start, end) of the same operations
        self.last_result = None
        self._outs = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
        self.child_env = env

    @property
    def attempted(self):
        return self.op_id

    def op(self, kind, fn):
        """Time one operation and keep its result in ``last_result``; False if it raised."""
        self.op_id += 1
        self.tracer.op_id = self.op_id
        self.op_kind[self.op_id] = kind
        self.pace.maybe()
        t0 = perf_counter()
        try:
            self.last_result = fn()
        except Exception as exc:  # the loop must go on; the failure is counted and shown
            self.last_result = None
            self.fail(self.op_id, f"{kind}: {type(exc).__name__}: {exc}")
            return False
        t1 = perf_counter()
        self.op_times.setdefault(kind, []).append(t1 - t0)
        self.op_spans.setdefault(kind, []).append((t0, t1))
        return True

    def fail(self, op, message):
        self.failed_ops.add(op)
        self.messages.append(message)

    def out_path(self, name):
        """A path in this run's fresh directory that no earlier operation used."""
        self._outs += 1
        return os.path.join(self.work, f"out{self._outs}-{name}")

    def subprocess(self, argv):
        proc = subprocess.run(argv, cwd=self.root, env=self.child_env, capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return proc.stdout


def blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded; None if unknown."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_sha(root):
    """HEAD of the checkout, read from .git without running git; 'unknown' elsewhere."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args, root, nproc):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas_threads()
    return {
        "git_sha": git_sha(root),
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "smoke": args.smoke,
    }


def timed_loop(run, workload, seconds):
    """Operations until ``seconds`` have gone by and one whole pass is done.

    Returns the operation durations by kind and the number of operations
    of each kind in one pass.
    """
    run.op_times = {}
    run.op_spans = {}
    per_pass = None
    deadline = perf_counter() + seconds
    while per_pass is None or perf_counter() < deadline:
        for _ in workload.run_pass():
            if per_pass is not None and perf_counter() >= deadline:
                break
        else:
            if per_pass is None:
                per_pass = {kind: len(t) for kind, t in run.op_times.items()}
    return run.op_times, per_pass


def pass_time(times, per_pass):
    """Estimated time of one pass: the sum over its operations of their kind's
    median, which uses every sample and shrugs off a burst of interference."""
    return sum(n * median(times[kind]) for kind, n in per_pass.items())


def run_workload(args, spec, root, import_s):
    nproc = len(os.sched_getaffinity(0))
    meta = metadata(args, root, nproc)
    if meta["blas_threads"] is not None and meta["blas_threads"] > nproc:
        print(f"error: BLAS uses {meta['blas_threads']} threads on {nproc} CPUs", file=sys.stderr)
        return 2
    base = os.path.join(root, "bench", "work")
    results_dir = os.path.join(root, "bench", "results")
    os.makedirs(base, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        return _run(args, spec, root, import_s, meta, work, results_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, spec, root, import_s, meta, work, results_dir):
    run = Run(args, root, work, results_dir)
    workload = WORKLOADS[args.workload](run)

    setup_spans = []
    for i in range(1 if args.smoke else workload.setup_reps):
        d = os.path.join(work, f"setup{i}")
        os.makedirs(d)
        run.pace.sample(SETUP_SLICES)
        t0 = perf_counter()
        workload.setup(d)
        setup_spans.append((t0, perf_counter()))
    run.pace.sample(SETUP_SLICES)
    setup_s = [t1 - t0 for t0, t1 in setup_spans]

    workload.install_phases(run.tracer)
    if args.trace:
        untraced_pass_s = pass_time(*timed_loop(run, workload, args.seconds / 2))
        run.tracer.clear()
        layers.install(run.tracer)
    times, per_pass = timed_loop(run, workload, args.seconds / 2 if args.trace else args.seconds)
    pass_s = pass_time(times, per_pass)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.tracer.uninstall()

    t0 = perf_counter()
    workload.check()
    check_s = perf_counter() - t0

    failed = len(run.failed_ops)
    # gated timings are in seconds at the nominal host pace (see pace.py); *_wall_s are the raw ones
    scale = run.pace.scale
    paced = {kind: [(t1 - t0) * scale(workload.numpy_share, t0, t1) for t0, t1 in spans]
             for kind, spans in run.op_spans.items()}
    setup_paced = [(t1 - t0) * scale(workload.setup_numpy_share, t0, t1) for t0, t1 in setup_spans]
    detail = {
        "setup_s": (median(setup_paced), "s", len(setup_s)),
        "setup_wall_s": (median(setup_s), "s", len(setup_s)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "failed_op_ratio": (failed / max(1, run.attempted), "ratio", run.attempted),
    }
    items_per_s, wl = workload.metrics(times)
    n_ops = sum(len(t) for t in times.values())
    detail["pass_s"] = (pass_time(paced, per_pass), "s", n_ops)
    detail["pass_wall_s"] = (pass_s, "s", n_ops)
    detail["items_per_s"] = (workload.metrics(paced, paced=True)[0], "1/s", n_ops)
    detail["items_wall_per_s"] = (items_per_s, "1/s", n_ops)
    detail["host_slowness"] = (run.pace.slowness(workload.numpy_share), "ratio", len(run.pace.at))
    detail.update({k: v for k, v in wl.items() if isinstance(v, tuple)})
    notes = {k: v for k, v in wl.items() if not isinstance(v, tuple)}
    values = {name: detail[name][0] for name in ("setup_s", "pass_s", "items_per_s", "peak_rss_mb")}
    if args.trace:
        values = layers.figures(run.tracer, import_s)
        values["trace.overhead_s"] = pass_s - untraced_pass_s
        values["trace.overhead_ratio"] = (pass_s - untraced_pass_s) / untraced_pass_s
        spans_path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-spans.npz")
        run.tracer.save(spans_path)
        notes["spans_file"] = os.path.relpath(spans_path, root)
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}

    tag = f"[{args.workload}]"
    for name, (value, unit, n) in detail.items():
        print(f"{tag} {name} = {value:.6g} {unit} (n={n})")
    for name, value in notes.items():
        print(f"{tag} {name} = {value}")
    print(f"{tag} operations = {run.attempted}, failed = {failed}, "
          f"tie reorders = {run.tie_reorders}, check time = {check_s:.1f} s")
    for message in run.messages[:20]:
        print(f"{tag} FAILED {message}")
    print(f"{tag} meta = {json.dumps(meta, sort_keys=True)}")
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics}
    record = dict(result, meta=meta, detail={k: list(v) for k, v in detail.items()}, notes=notes,
                  tie_reorders=run.tie_reorders, op_times=times, setup_runs=setup_s, failures=run.messages,
                  op_spans=run.op_spans, per_pass=per_pass, setup_spans=setup_spans, pace=run.pace.record())
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0
