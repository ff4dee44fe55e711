"""The package's one numpy binding: ``from ._np import np``.

numpy takes most of the command line's start-up, and ``validate`` needs none
of it.  So unless numpy is already imported, ``np`` is the lazy module of the
``importlib.util.LazyLoader`` recipe ("Implementing lazy imports" in the
Python docs), registered as ``sys.modules["numpy"]``: the process still has
one numpy, and it loads on the first attribute access from anywhere.  A
process with no numpy fails at import, as a plain ``import numpy`` does.

Python 3.11's ``LazyLoader`` is not safe for a first access from two threads
at once.  The package starts no threads, and the command line loads numpy
(``load_numpy``) before it writes anything.
"""

import importlib.util
import sys


def _bind():
    if "numpy" in sys.modules:  # loaded, lazy, or blocked with None
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        import numpy  # raises the usual ModuleNotFoundError

        return numpy
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _bind()


def load_numpy():
    """Load numpy and ``numpy.random`` now, if they have not loaded: their
    import cost and any import error land here instead of inside the first
    array operation or the first generator.  numpy 2 leaves ``numpy.random``
    to its own lazy ``__getattr__``, and it brings ``secrets`` and
    ``hashlib`` with it."""
    import numpy.random  # raises ImportError where sys.modules blocks numpy
