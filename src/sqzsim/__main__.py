"""Entry point of ``python -m sqzsim`` and of the installed ``sqzsim`` script."""

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

    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
