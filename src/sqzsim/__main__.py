"""Entry point of ``python -m sqzsim`` and of the installed ``sqzsim`` script."""

import gc
import os
import sys


def main(argv=None) -> int:
    # No command calls BLAS or LAPACK (sqzsim has no matmul, dot or linalg,
    # and its Gauss-Legendre rules are constants, not numpy's leggauss), so
    # OpenBLAS's worker threads only cost start-up time: on a 2-vCPU host a
    # cold numpy import used about 0.24 s of CPU with them and 0.18 s
    # without. numpy reads the variable when it first loads, below; a value
    # the user has set still wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import cli

    # When the command returns, the collector tracks about 22,000 objects,
    # the interpreter's, numpy's and the package's, and every file the
    # command wrote is closed. Frozen, they are skipped by the final
    # collections of interpreter shutdown, which would walk them all to
    # reclaim memory the exit returns anyway: the exit took about 5 ms
    # instead of 19 ms per process on a 2-vCPU host. Pausing the collector
    # during the imports and freezing them once loaded gained nothing
    # measurable and kept 0.2 MB more at peak. cli.main and the library
    # leave the collector as they find it.
    try:
        return cli.main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
