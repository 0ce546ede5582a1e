"""Pytest plugin: build the compiled kernels with extra compiler flags.

Load it with ``-p tests.kernel_flags`` from the repository root::

    PYTHONPATH=src python -m pytest -p tests.kernel_flags \\
        --kernel-cflags="-Wall -Wextra -Werror" tests/property/test_kernels.py

``--kernel-cflags`` is appended to :data:`repro.kernels.CFLAGS` before the
session starts and :func:`repro.kernels.load` rebuilds the module (its cache
key includes the flags).  A build that fails raises :class:`ImportError`,
which stops the session as a usage error.  For the sanitizer build, preload
the runtimes the interpreter was not linked with::

    export LD_PRELOAD="$(gcc -print-file-name=libasan.so) \\
        $(gcc -print-file-name=libubsan.so)"
    ASAN_OPTIONS=detect_leaks=0 PYTHONPATH=src python -m pytest \\
        -p tests.kernel_flags --kernel-cflags="-O1 -g \\
        -fsanitize=address,undefined -fno-sanitize-recover=undefined" \\
        tests/property/test_kernels.py
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--kernel-cflags",
        default="",
        help="extra compiler flags to rebuild repro's compiled kernels with",
    )


def pytest_configure(config: pytest.Config) -> None:
    flags = tuple(config.getoption("--kernel-cflags").split())
    if not flags:
        return
    from repro import kernels

    kernels.CFLAGS = (*kernels.CFLAGS, *flags)
    try:
        kernels.load()
    except ImportError as error:
        raise pytest.UsageError(
            f"repro's kernels did not build with {' '.join(kernels.CFLAGS)}: {error}"
        ) from error
