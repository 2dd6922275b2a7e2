"""Count what the solver does over one pass of a perfbench workload.

Builds the workload from perfbench/workloads.py at a seed into a temporary
directory and runs one pass of its operations through perfbench/run.py's
Runner, which drives purcell_cool.cli.main in-process single-threaded and
checks every operation as a benchmark pass does. Both modules are imported
from perfbench/ unchanged. It wraps ode._frame_rows, whose call starts a
solve and whose build(h) rebuilds the factor and head rows for a new step
size, ode._error_norm, called once per attempt, and blochsim._advance, one
call per event, which it sorts into pulses (a nonzero drive), ring-downs
(the LONG_DELAY_FACTOR / kappa that a long delay rings down for), other
delays and acquisitions (sampled), so that a pulse of amplitude 0 counts
as a delay. It prints the solves, the attempts, the rejections (an error
norm above 1 or not finite) and the factor-row rebuilds, per event kind and
in all. Run from the repository root:

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
import numpy as np  # noqa: E402


KINDS = ("pulse", "delay", "ring-down", "acquire")
FIELDS = ("solves", "attempts", "rejections", "rebuilds")


class Counts:
    """The solver's counters, in all and per event kind, kept by wrapping
    ode's private functions and blochsim._advance."""

    def __init__(self, ode, blochsim):
        self.total = dict.fromkeys(FIELDS, 0)
        self.kinds = {kind: dict.fromkeys(FIELDS, 0) for kind in KINDS}
        frame_rows, error_norm, advance = ode._frame_rows, ode._error_norm, blochsim._advance

        def counted_frame_rows(*args):
            self.total["solves"] += 1
            fac, heads, build = frame_rows(*args)

            def counted_build(h):
                self.total["rebuilds"] += 1
                build(h)

            return fac, heads, counted_build

        def counted_error_norm(*args):
            err = error_norm(*args)
            self.total["attempts"] += 1
            self.total["rejections"] += not err <= 1.0  # nan too
            return err

        def counted_advance(y, groups, res, a_in, duration, **kwargs):
            if kwargs.get("sample_dt") is not None:
                kind = "acquire"
            elif np.any(a_in):
                kind = "pulse"
            elif duration == blochsim.LONG_DELAY_FACTOR / res.kappa:
                kind = "ring-down"
            else:
                kind = "delay"
            before = dict(self.total)
            try:
                return advance(y, groups, res, a_in, duration, **kwargs)
            finally:
                for field in FIELDS:
                    self.kinds[kind][field] += self.total[field] - before[field]

        ode._frame_rows, ode._error_norm = counted_frame_rows, counted_error_norm
        blochsim._advance = counted_advance

    def table(self):
        """One line per event kind that ran, then the totals."""
        rows = [(kind, self.kinds[kind]) for kind in KINDS if self.kinds[kind]["solves"]]
        lines = [f"{'':10}" + "".join(f"{field:>11}" for field in FIELDS)]
        for name, counts in rows + [("all", self.total)]:
            lines.append(f"{name:10}" + "".join(f"{counts[field]:>11}" for field in FIELDS))
        return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    from purcell_cool import blochsim, cli, ode
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp, "inputs")
        inputs.mkdir()
        workload = workloads.WORKLOADS[args.workload](
            args.seed, "normal", inputs, lambda argv: run.invoke(cli, argv))
        counts = Counts(ode, blochsim)  # after the input preparation, as perfbench times a pass
        runner = run.Runner(cli, workload, {})
        runner.run_pass(Path(tmp, "pass"))
    print(f"{args.workload} seed {args.seed}")
    print(counts.table())
    for line in runner.failures:
        print(f"failed: {line}", file=sys.stderr)
    return 1 if runner.failed else 0


if __name__ == "__main__":
    sys.exit(main())
