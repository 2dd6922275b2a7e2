"""Count what the solver does over one pass of a perfbench workload.

Builds the workload from perfbench/workloads.py at a seed into a temporary
directory and runs one pass of its operations through perfbench/run.py's
Runner, which drives purcell_cool.cli.main in-process single-threaded and
checks every operation as a benchmark pass does. Both modules are imported
from perfbench/ unchanged. It wraps ode._frame_rows, whose call starts a
solve and whose build(h) rebuilds the factor and head rows for a new step
size, and ode._error_norm, called once per attempt. It prints the solves,
the attempts, the rejections (an error norm above 1 or not finite) and the
factor-row rebuilds. Run from the repository root:

    PYTHONPATH=src python3 tests/solver_counts.py echo-wide --seed 0
    PYTHONPATH=src python3 tests/solver_counts.py sweep-narrow --seed 1

The exit code is 1 when an operation fails.
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave no cache under perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402  pins the BLAS threads before numpy is imported
import workloads  # noqa: E402


class Counts:
    """The solver's counters, kept by wrapping ode's private functions."""

    def __init__(self, ode):
        self.solves = self.attempts = self.rejections = self.rebuilds = 0
        frame_rows, error_norm = ode._frame_rows, ode._error_norm

        def counted_frame_rows(*args):
            self.solves += 1
            fac, heads, build = frame_rows(*args)

            def counted_build(h):
                self.rebuilds += 1
                build(h)

            return fac, heads, counted_build

        def counted_error_norm(*args):
            err = error_norm(*args)
            self.attempts += 1
            self.rejections += not err <= 1.0  # nan too
            return err

        ode._frame_rows, ode._error_norm = counted_frame_rows, counted_error_norm


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    from purcell_cool import cli, ode
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp, "inputs")
        inputs.mkdir()
        workload = workloads.WORKLOADS[args.workload](
            args.seed, "normal", inputs, lambda argv: run.invoke(cli, argv))
        counts = Counts(ode)  # after the input preparation, as perfbench times a pass
        runner = run.Runner(cli, workload, {})
        runner.run_pass(Path(tmp, "pass"))
    print(f"{args.workload} seed {args.seed}: {counts.solves} solves, {counts.attempts} "
          f"attempts, {counts.rejections} rejections, {counts.rebuilds} rebuilds")
    for line in runner.failures:
        print(f"failed: {line}", file=sys.stderr)
    return 1 if runner.failed else 0


if __name__ == "__main__":
    sys.exit(main())
