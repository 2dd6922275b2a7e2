"""Set-up time of one CLI invocation, measured in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG

Prints three numbers: seconds to import ``purcell_cool.cli`` and parse
CONFIG, the mean time of a pure-Python speed kernel sampled every 20 ms
during that work by a timer signal, and the number of samples. The time
spent in the samples is taken out of the first number; the caller divides
it by the second to factor out the machine's drifting speed.
"""

import signal
import sys
import time

samples = []


def kernel():
    t0 = time.perf_counter()
    s = 0
    for i in range(2000):
        s += i * i % 7
    return time.perf_counter() - t0


def sample(signum, frame):
    samples.append(kernel())


def main(config):
    samples.append(kernel())
    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, 0.02, 0.02)
    t0 = time.perf_counter()
    import purcell_cool.cli  # noqa: F401
    from purcell_cool.config import parse_config
    parse_config(config)
    elapsed = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    stolen = sum(samples[1:])
    samples.append(kernel())
    print(repr(elapsed - stolen), repr(sum(samples) / len(samples)), len(samples))


if __name__ == "__main__":
    main(sys.argv[1])
