"""Time a pytest run in reference-speed seconds.

Raw suite times drift severalfold between sessions and machines. This runs
`python -m pytest <args>` from the repository root in a child process and,
in its own process meanwhile, samples the machine's speed with
perfbench/run.py's kernel(), once every SAMPLE_EVERY_S (its SpeedSampler).
It prints the raw seconds and the reference seconds, raw * KERNEL_REF_S /
(mean kernel time), the unit of perfbench's times, and the child's CPU
seconds (user + system), which do not depend on that mean: within one
session they compare two commits more steadily. Run from the repository
root; every argument goes to pytest, so --hypothesis-seed=N makes two
commits time the same fuzz draws:

    PYTHONPATH=src python3 tests/suite_time.py -q --hypothesis-seed=0
    PYTHONPATH=src python3 tests/suite_time.py -q --hypothesis-seed=0 \\
        tests/test_cli.py::test_simulation_fuzz_ends_in_a_documented_exit_code

The child gets this process's environment as it was before perfbench/run.py
was imported, since that module pins the BLAS thread counts for its own
runs. The exit code is pytest's.
"""

import importlib.util
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_perfbench():
    """perfbench/run.py as a module, imported from its path."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(args):
    env = dict(os.environ)
    bench = load_perfbench()
    cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    with bench.SpeedSampler() as sampler:
        code = subprocess.run([sys.executable, "-m", "pytest", *args], cwd=ROOT,
                              env=env).returncode
    raw = time.perf_counter() - t0
    cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = cpu1.ru_utime - cpu0.ru_utime + cpu1.ru_stime - cpu0.ru_stime
    samples = sampler.samples or [bench.kernel()]  # a run shorter than one interval
    mean = statistics.mean(samples)
    print(f"suite_time: {raw:.2f} s raw, {raw * bench.KERNEL_REF_S / mean:.2f} s reference "
          f"({len(samples)} kernel samples, mean {mean * 1e3:.3f} ms), {cpu:.2f} s child CPU")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
