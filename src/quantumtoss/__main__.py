"""Command-line entry: ``python -m quantumtoss`` and the installed ``quantumtoss`` script.

OpenBLAS is pinned to one thread before numpy loads.  A product split over
two threads can round differently from the same product on one (``spectrum
--rounds 128`` already prints other bytes), so a pool sized by the core
count would make the output depend on the host; one thread keeps it a
function of argv alone, and the products here (dimension at most 512) gain
nothing from a pool.  The library never touches the environment: programs
that import quantumtoss keep their own threading.

The process ends with ``os._exit`` once stdout and stderr are flushed: the
interpreter's teardown (module and object finalization, about 40 ms on a
2-vCPU Linux VM) has nothing left to write, since every --out and --svg
file is closed by then.  The explicit flush also makes a failed final
write the documented I/O error (exit 1 with an error line) rather than an
"Exception ignored" message and exit 120.  Only this entry ends early;
``run_cli`` and the library return as before.

stdout is written through a buffered stream even when PYTHONUNBUFFERED or
``-u`` is set: unbuffered, ``sys.stdout`` writes straight to the raw file
and drops what a short write left over, so a reader that closes the pipe
early would see exit 0 with no error line.
"""

import os
import sys


def main() -> None:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import PROG, run_cli  # numpy loads here, after the pin

    out = sys.stdout
    if out is not None:  # None when the descriptor is closed
        sys.stdout = open(out.fileno(), "w", encoding=out.encoding, errors=out.errors,
                          closefd=False)
    code = run_cli(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
