"""Shared dense linear-algebra helpers: the jittered Cholesky and its error."""

from __future__ import annotations

from ._np import np

DEFAULT_JITTER = 1e-10


class NumericalError(RuntimeError):
    """Covariance factorization failed even after diagonal jitter.

    Carries the absolute jitter that was on the diagonal when the
    factorization was attempted.
    """

    def __init__(self, message: str, jitter: float):
        super().__init__(f"{message} (jitter={jitter:g})")
        self.jitter = jitter


def jittered_cholesky(cov: np.ndarray):
    """Lower Cholesky factor of ``cov + jitter*I`` for a non-empty square
    ``cov``; consumes ``cov``.

    The jitter is ``DEFAULT_JITTER`` times the largest diagonal entry, the
    standard safeguard for nearly-PSD kernel matrices.  It is added to the
    diagonal of ``cov`` in place, so callers pass a matrix they no longer
    need.  Returns ``(L, jitter)``; raises NumericalError if the
    factorization still fails.
    """
    jitter = DEFAULT_JITTER * float(np.max(np.diagonal(cov)))
    cov[np.diag_indices(cov.shape[0])] += jitter
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"covariance not positive definite: {exc}", jitter) from exc
    return L, jitter

