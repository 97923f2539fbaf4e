"""Command-line entry: ``python -m quantumtoss`` and the installed ``quantumtoss`` script.

OpenBLAS is pinned to one thread before numpy loads.  A product split over
two threads can round differently from the same product on one (``spectrum
--rounds 128`` already prints other bytes), so a pool sized by the core
count would make the output depend on the host; one thread keeps it a
function of argv alone, and the products here (dimension at most 512) gain
nothing from a pool.  The library never touches the environment: programs
that import quantumtoss keep their own threading.
"""

import os
import sys


def main() -> None:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import run_cli  # numpy loads here, after the pin

    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
