"""gaincap benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload ladder|sweep|cli --seed N --seconds S --trace 0|1

Run from the repository root; gaincap is imported from ``src/``.  The load
is a closed loop with one caller: each verdict runs to completion before
the next starts, in this single process and thread.  The workload's fixed
batch of verdicts is repeated until ``--seconds`` have passed, and every
verdict of every batch is checked against an oracle that solves no LP.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run (see
tracing.py), and the spans of one traced batch are written to
``perfbench/out/``.  The exit code is 1 when any verdict is wrong or a
count fails to repeat.  See README.md for the metrics and workloads.
"""

import os

if __name__ == "__main__":
    # one thread in every BLAS/OpenMP pool, set before numpy is first imported
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("ladder", "sweep", "cli")
SETUP_RUNS = 5  # set-ups per run: SETUP_RUNS - 1 fresh child processes plus this one
SETUP_REFERENCES = 5  # reference-kernel passes that gauge the speed of each set-up
REFERENCE_EVERY_S = 0.05  # least verdict time between two reference-kernel passes
# counts that must be identical in every traced batch of one seed
REPEATING_COUNTS = ("lp.calls", "lp.rows_max", "lp.cells", "capacity.determine.steps",
                    "capacity.membership.calls", "cli.output_bytes")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it as JSON and exit")
    return parser.parse_args(argv)


def set_up(workload, seed):
    """Import gaincap, generate the inputs and warm up, as a user would
    before the first verdict.  Returns (import_s, setup_s, workload), both
    times scaled to reference speed."""
    start = perf_counter()
    import gaincap  # noqa: F401
    import_s = perf_counter() - start
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    wl.run(wl.warm_index)
    setup_s = perf_counter() - start
    factor = wl.REFERENCE_S / statistics.median(wl.reference() for _ in range(SETUP_REFERENCES))
    return import_s * factor, setup_s * factor, wl


def child_set_up(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    timing = json.loads(proc.stdout.splitlines()[-1])
    return timing["import_s"], timing["setup_s"]


class Batch:
    """One pass over the workload's verdicts.

    ``raw`` holds the verdict times as measured and ``times`` the same
    scaled to reference speed: each verdict by the mean of the reference
    kernel's passes just before and just after it.  A pass runs first, then
    after every REFERENCE_EVERY_S of verdicts and after the last verdict.
    ``spans`` is the range of the tracer's spans the batch recorded.
    """

    def __init__(self, wl, tracer=None):
        self.raw, self.digests, self.refs = [], [], [wl.reference()]
        lo = len(tracer.spans) if tracer else 0
        before, since_ref = [], 0.0
        for i in range(wl.size):
            start = perf_counter()
            try:
                result = wl.run(i) if tracer is None else tracer.span("verdict", wl.run, i)
            except Exception as err:  # a failed verdict is counted, the run goes on
                result = err
            elapsed = perf_counter() - start
            self.raw.append(elapsed)
            before.append(len(self.refs) - 1)
            self.digests.append(self._digest(wl, i, result))
            since_ref += elapsed
            if since_ref >= REFERENCE_EVERY_S or i == wl.size - 1:
                self.refs.append(wl.reference())
                since_ref = 0.0
        self.times = [
            t * 2.0 * wl.REFERENCE_S / (self.refs[k] + self.refs[k + 1])
            for t, k in zip(self.raw, before)
        ]
        self.spans = (lo, len(tracer.spans) if tracer else 0)

    @staticmethod
    def _digest(wl, i, result):
        if isinstance(result, Exception):
            return result
        try:
            return wl.digest(i, result)
        except Exception as err:  # unparseable output is a failed verdict
            return err

    @property
    def wall(self):
        """The batch's wall time, scaled to reference speed."""
        return sum(self.times)

    @property
    def speed(self):
        """Scaled over raw wall time."""
        return self.wall / sum(self.raw)


def measure(wl, seconds, tracer=None, min_batches=1):
    """Repeat the batch until ``seconds`` have passed (and at least
    ``min_batches`` ran)."""
    batches = []
    deadline = perf_counter() + seconds
    while len(batches) < min_batches or perf_counter() < deadline:
        batches.append(Batch(wl, tracer))
    return batches


def verify(wl, batches):
    """Oracle check of every verdict; returns (attempted, failure messages)."""
    attempted, failures = 0, []
    for batch in batches:
        for i, d in enumerate(batch.digests):
            attempted += 1
            if isinstance(d, Exception):
                problems = [f"raised {type(d).__name__}: {d}"]
            else:
                problems = wl.check(i, d)
            if problems:
                failures.append(f"verdict {i} ({wl.label(i)}): " + "; ".join(problems))
    return attempted, failures


def environment(seed):
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "machine": platform.machine(),
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
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


def hd_quantile(values, p, points=64):
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density.  Unlike a
    plain percentile it does not hinge on the one or two samples next to
    the p-th position, which on the cli workload are single 2 ms commands
    whose times scatter by a third."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, points * n + 1)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.concatenate([[0.0], np.exp(log_pdf - log_pdf.max()), [0.0]])
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    weights = np.diff(cdf[::points])
    return float(weights @ x / weights.sum())


def end_to_end(wl, batches, setup_s):
    # read before the quantile estimates allocate their own work arrays
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # one time per input, its median over all its verdicts: pooling the
    # verdicts instead lets the number of repetitions that fit in a run
    # shift the percentiles between ladder cases
    samples = {}
    for b in batches:
        for key, t in zip(wl.keys, b.times):
            samples.setdefault(key, []).append(t)
    times = [statistics.median(ts) for ts in samples.values()]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(b.wall for b in batches), "s"),
        "verdict_p50_ms": (1e3 * hd_quantile(times, 0.5), "ms"),
        "verdict_p90_ms": (1e3 * hd_quantile(times, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(wl, args, import_s, info):
    """Untraced batches, then traced ones; per-layer metrics of the traced
    batches (medians of times, counts that must repeat exactly)."""
    import tracing

    plain = measure(wl, args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = measure(wl, args.seconds / 2, tracer=tracer, min_batches=2)
    finally:
        tracer.uninstall()
    rows, self_totals = [], {}
    for batch in traced:
        layers, self_s = tracing.layer_metrics(tracer.spans, *batch.spans)
        for name, (value, unit) in layers.items():
            if unit in ("s", "us"):
                layers[name] = (value * batch.speed, unit)
        out_bytes = sum(d.get("bytes", 0) for d in batch.digests if isinstance(d, dict))
        layers["cli.output_bytes"] = (out_bytes, "bytes")
        rows.append(layers)
        for name, value in self_s.items():
            self_totals.setdefault(name, []).append(value * batch.speed)
    repeat_failures = [
        f"{name} differs between traced batches: {[r[name][0] for r in rows]}"
        for name in REPEATING_COUNTS
        if len({r[name][0] for r in rows}) > 1
    ]
    metrics = {}
    for name, (value, unit) in rows[0].items():
        if isinstance(value, int):
            metrics[name] = (value, unit)
        else:
            metrics[name] = (statistics.median(r[name][0] for r in rows), unit)
    traced_wall = statistics.median(b.wall for b in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(b.wall for b in plain), "s")
    metrics["setup.import_s"] = (import_s, "s")
    info["absent_layers"] = tracer.absent
    info["self_s_by_span"] = {
        name: statistics.median(values)
        for name, values in sorted(self_totals.items(), key=lambda kv: -statistics.median(kv[1]))
    }
    info["spans_file"] = str(write_spans(tracer, traced[0].spans, args).relative_to(ROOT))
    return metrics, plain + traced, repeat_failures


def write_spans(tracer, span_range, args):
    lo, hi = span_range
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    spans = [[name, start, end, parent - lo if parent >= 0 else -1]
             for name, start, end, parent, _ in tracer.spans[lo:hi]]
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"], "spans": spans}))
    return path


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gaincap" / "__init__.py").is_file():
        print(f"run.py: no gaincap sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        import_s, setup_s, _ = set_up(args.workload, args.seed)
        print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
        return 0

    timings = [child_set_up(args) for _ in range(SETUP_RUNS - 1)]
    import_s, setup_s, wl = set_up(args.workload, args.seed)
    timings.append((import_s, setup_s))
    import_s = statistics.median(t[0] for t in timings)
    setup_s = statistics.median(t[1] for t in timings)

    info = {"workload": args.workload, "env": environment(args.seed)}
    if args.trace:
        metrics, batches, extra_failures = per_layer(wl, args, import_s, info)
    else:
        batches = measure(wl, args.seconds)
        metrics, extra_failures = end_to_end(wl, batches, setup_s), []
    attempted, failures = verify(wl, batches)
    failures += extra_failures
    failed = min(attempted, sum(1 for f in failures if f.startswith("verdict ")))
    info.update(verdicts=attempted, batch_size=wl.size,
                raw_batch_wall_s=[sum(b.raw) for b in batches],
                speed=[b.speed for b in batches],
                fail_ratio=failed / attempted, failures=failures[:20])
    print(json.dumps(info))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
