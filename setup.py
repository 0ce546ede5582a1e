"""The compiled kernels of an installed package, built against numpy.

``pyproject.toml`` holds the project's metadata; this file only declares
the ``repro._kernels`` extension, whose include and library paths come from
the numpy the build runs with (a build requirement).  A source checkout
builds the same module on first import (``src/repro/kernels.py``) with the
same flags: no fused multiply-add and no fast-math, so it computes the bits
of the reference bodies in ``tests/oracles/kernels.py``.  numpy's C random
library is linked in statically, so the extension must be rebuilt for
another numpy.
"""

import os

import numpy
from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "repro._kernels",
            sources=["src/repro/_kernels.c"],
            include_dirs=[numpy.get_include()],
            extra_objects=[
                os.path.join(os.path.dirname(numpy.__file__), "random", "lib", "libnpyrandom.a")
            ],
            libraries=["m"],
            extra_compile_args=["-O2", "-ffp-contract=off"],
        )
    ]
)
