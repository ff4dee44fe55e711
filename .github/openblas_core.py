"""Print the kernel family ("core") a DYNAMIC_ARCH OpenBLAS picked on this CPU.

    python .github/openblas_core.py

Reads it from the OpenBLAS that numpy's wheel bundles, through
``scipy_openblas_get_corename64_``; prints "unknown" if no bundled library
exports that function.  test_golden's byte pins depend on this core.
"""

import ctypes
import glob
import os

import numpy

libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
name = "unknown"
for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so*")):
    get = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
    if get is not None:
        get.argtypes, get.restype = [], ctypes.c_char_p
        name = get().decode()
print("OpenBLAS core:", name)
