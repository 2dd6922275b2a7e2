"""Benchmark of the purcell-cool command line, end to end and per layer.

    python3 perfbench/run.py --workload echo-wide --seed 0 --seconds 25 --trace 0

Run from the repository root. The program is imported from ``src/`` and
driven in-process through ``purcell_cool.cli.main``, single-threaded, on the
inputs that ``workloads.py`` generates from the seed. Every invocation's
outputs are checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

One run:

1. builds the workload's inputs from ``--seed``;
2. measures set-up: a fresh interpreter imports ``purcell_cool.cli`` and
   parses the workload config (``setup_probe.py``), several times (median,
   untimed first one);
3. repeats timed passes over the workload's operations while another pass
   still fits into ``--seconds`` (at least one pass);
4. with ``--trace 1``, runs one more pass under the outside-in tracer of
   ``tracer.py``, whose overhead is the traced pass over the median pass.

Times are reported in reference-speed seconds. On a shared 2-vCPU Xeon
virtual machine the speed drifts by 30-70% within minutes, in step for the
program and for any other code. So a small fixed kernel is timed every 50 ms
during the
measured work (``SpeedSampler``; a pure-Python one inside the set-up probe),
and a raw time t becomes t * KERNEL_REF_S / (mean kernel time meanwhile).
Raw pass times are reported too (``raw_wall_s``) and kept in the run records.

``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json and
``--trace 1`` its ``per_layer`` metrics. The per-subcommand times among the
latter come from the untraced passes; a layer or subcommand that a workload
does not run reports 0. Operations run in-process, so ``peak_rss_mb`` is the
benchmark process's own peak resident size.

An operation fails when the CLI does not return 0, a file disagrees with the
manifest hash, a physics check fails, or its output hashes differ from an
earlier pass or from an earlier run of the same seed on the same sources
(kept under ``perfbench/_out/hashes``). Spans of the traced pass and each
run's metadata are written under ``perfbench/_out``.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in children
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_REPEATS = 7
TIME_UNITS = ("s", "ms", "us")
# Reported times are seconds at a fixed machine speed: t_raw * KERNEL_REF_S /
# (mean time of the speed-sampling kernel while t_raw was measured).
KERNEL_REF_S = 0.001
SAMPLE_EVERY_S = 0.05
MIN_OP_SAMPLES = 10
SETUP_KERNEL_REF_S = 0.00015  # the same for setup_probe.py's pure-Python kernel

_rng = np.random.default_rng(12345)
_WIDE = _rng.random(3281) + 1j * _rng.random(3281)
_NARROW = _rng.random(145) + 1j * _rng.random(145)
_MATRIX = _rng.random((20, 20)) + 1j * _rng.random((20, 20))


def kernel():
    """Seconds for a fixed mix of the program's kinds of work, about 1 ms:
    wide and narrow complex vector updates, small dense matrix products and
    a pure-Python loop."""
    t0 = time.perf_counter()
    for base, n in ((_WIDE, 12), (_NARROW, 75)):
        y = base.copy()
        for _ in range(n):
            y = y + 1e-3 * (y * (0.5 - 0.1j) - np.conj(y) * 0.2)
            float(np.dot(y.real, base.imag))
    m = _MATRIX
    for _ in range(20):
        m = m @ _MATRIX * 0.01
    s = 0
    for i in range(3000):
        s += i * i % 7
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples the machine's speed while the program runs.

    A timer signal runs kernel() every SAMPLE_EVERY_S between the program's
    bytecodes,
    so the samples cover the same stretches of time as the measured work;
    their mean scales raw times to reference-speed seconds. Time spent in the
    handler is kept in `stolen` so that callers can take it out again."""

    def __init__(self):
        self.samples = []
        self.stolen = 0.0
        self._busy = False
        self._previous = None

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(kernel())
        self.stolen += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("normal", "tiny"), default="normal",
                   help="tiny shrinks every workload; for the self-test")
    return p.parse_args(argv)


def sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "purcell_cool").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args, src_digest):
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_sha": git_sha(),
        "source_sha256": src_digest,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(config):
    """Median reference-speed seconds for a fresh interpreter to import the
    CLI and parse the config (setup_probe.py); returns it and the probes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probes = []
    for k in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(config)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        if k:  # the first start also fills OS file caches
            seconds, kernel_s, _ = proc.stdout.split()
            probes.append((float(seconds), float(kernel_s)))
    return statistics.median(t * SETUP_KERNEL_REF_S / k for t, k in probes), probes


def invoke(cli, argv):
    """cli.main on argv; its return code, or None when it raised."""
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code
    except Exception:  # a traceback is a failed operation, not a crash
        traceback.print_exc(file=sys.stderr)
        return None


class Runner:
    """Runs operations, checks them and keeps timings and failure counts."""

    def __init__(self, cli, workload, reference_hashes):
        self.cli = cli
        self.workload = workload
        self.reference = reference_hashes  # op -> outputs from an earlier run
        self.first = {}  # op -> outputs from the first pass of this run
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run_pass(self, passdir, tracer=None):
        """One pass over the operations under a SpeedSampler, and under
        `tracer` when one is given.

        An operation's time is scaled by the speed samples taken while it ran,
        or by those of the whole pass when it ran too briefly for
        MIN_OP_SAMPLES. Returns {"raw": {op: s}, "norm": {op: reference-speed
        s}, "speed": [kernel s]}."""
        passdir.mkdir(parents=True)
        raw, during = {}, {}
        with SpeedSampler() as sampler:
            sampler.samples.append(kernel())
            if tracer is not None:
                tracer.clock = lambda: time.perf_counter() - sampler.stolen
                tracer.install()
            try:
                self._run_ops(passdir, sampler, raw, during)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            sampler.samples.append(kernel())
        norm = {}
        for name, t in raw.items():
            samples = during[name] if len(during[name]) >= MIN_OP_SAMPLES else sampler.samples
            norm[name] = t * KERNEL_REF_S / statistics.mean(samples)
        return {"raw": raw, "norm": norm, "speed": sampler.samples}

    def _run_ops(self, passdir, sampler, raw, during):
        for op in self.workload.ops:
            out = passdir / op.name
            argv = op.argv(passdir) + ["--out", out]
            stolen, first = sampler.stolen, len(sampler.samples)
            t0 = time.perf_counter()
            rc = invoke(self.cli, argv)
            raw[op.name] = time.perf_counter() - t0 - (sampler.stolen - stolen)
            during[op.name] = sampler.samples[first:]
            self.check_op(op, rc, out)

    def check_op(self, op, rc, out):
        self.attempted += 1
        problem = self.check(op, rc, out)
        if problem:
            self.failed += 1
            self.failures.append(f"{op.name}: {problem}")
            print(f"perfbench: {op.name} failed: {problem}", file=sys.stderr)

    def check(self, op, rc, out):
        from workloads import CheckFailed
        if rc != 0:
            return f"exit code {rc}"
        try:
            with open(out / "manifest.json", encoding="utf-8") as fh:
                outputs = json.load(fh)["outputs"]
            for name, digest in outputs.items():
                if sha256_file(out / name) != digest:
                    return f"{name} does not match its manifest hash"
            op.check(out)
        except CheckFailed as exc:
            return str(exc)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return f"unreadable output: {exc!r}"
        expected = self.first.setdefault(op.name, outputs)
        if outputs != expected:
            return "output hashes differ from the first pass"
        if op.name in self.reference and outputs != self.reference[op.name]:
            return "output hashes differ from an earlier run of this seed"
        return None


def per_pass_metrics(workload, passes):
    """Medians over the passes of per-subcommand normalized seconds and of
    sequences simulated per normalized second."""
    times = [p["norm"] for p in passes]
    out = {}
    for metric in {op.metric for op in workload.ops if op.metric}:
        out[metric] = statistics.median(
            sum(t[op.name] for op in workload.ops if op.metric == metric) for t in times)
    sims = [op for op in workload.ops if op.sequences]
    if sims:
        out["sequences_per_s"] = statistics.median(
            sum(op.sequences for op in sims) / sum(t[op.name] for op in sims) for t in times)
    return out


def emit(spec, values, absent=None):
    """Result metrics in BENCHMARK.json order. A metric missing from values
    takes the value `absent`, or raises KeyError when that is None."""
    out = {}
    for m in spec:
        value = values[m["name"]] if absent is None else values.get(m["name"], absent)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "purcell_cool" / "cli.py").is_file():
        print(f"perfbench: no purcell_cool sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from purcell_cool import cli
    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    src_digest = source_digest()
    meta = metadata(args, src_digest)
    tag = f"{args.workload}-seed{args.seed}-{args.size}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.size, work / "inputs",
                                            lambda argv: invoke(cli, argv))
        meta["inputs"] = workload.inputs
        # outputs are a pure function of (sources, inputs): key earlier runs by both
        key = hashlib.sha256(json.dumps([src_digest, workload.inputs], sort_keys=True).encode())
        for path in sorted(p for p in (work / "inputs").iterdir() if p.is_file()):
            key.update(path.read_bytes())
        hash_file = OUT / "hashes" / f"{tag}-{key.hexdigest()[:16]}.json"
        reference = json.loads(hash_file.read_text()) if hash_file.is_file() else {}
        runner = Runner(cli, workload, reference)
        setup_s, setup_probes = measure_setup(workload.config)
        if invoke(cli, ["thermal", "--config", workload.config,
                        "--out", work / "warmup"]) != 0:
            raise RuntimeError("warm-up invocation failed")

        passes = []
        start = time.perf_counter()
        while True:
            passes.append(runner.run_pass(work / f"pass{len(passes)}"))
            shutil.rmtree(work / f"pass{len(passes) - 1}")
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > args.seconds:
                break
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(sum(p["norm"].values()) for p in passes),
            "raw_wall_s": statistics.median(sum(p["raw"].values()) for p in passes),
            "kernel_ms": 1e3 * statistics.median(c for p in passes for c in p["speed"]),
        }

        if args.trace:
            tr = tracing.Tracer()
            traced = runner.run_pass(work / "traced", tracer=tr)
            scale = KERNEL_REF_S / statistics.mean(traced["speed"])
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            for name, value in tr.metrics().items():
                values[name] = value * scale if units.get(name) in TIME_UNITS else value
            values.update(per_pass_metrics(workload, passes))
            values["trace.overhead_ratio"] = sum(traced["norm"].values()) / values["wall_s"]
            metrics = emit(bench["per_layer"], values, absent=0.0)
        else:
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = emit(bench["end_to_end"], values)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = {"meta": meta, "setup_probes_s": setup_probes, "passes": passes,
              "failures": runner.failures, "result": result}
    if args.trace:
        record["traced_pass"] = traced
        record["trace"] = tr.dump()
    (OUT / f"run-{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if runner.failed == 0 and not reference:
        hash_file.parent.mkdir(parents=True, exist_ok=True)
        tmp = hash_file.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(runner.first, indent=1, sort_keys=True))
        os.replace(tmp, hash_file)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
