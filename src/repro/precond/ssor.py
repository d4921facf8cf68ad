"""SSOR preconditioner.

The symmetric successive over-relaxation preconditioner

.. math::

    M = \\frac{1}{\\omega (2 - \\omega)} (D + \\omega L) D^{-1} (D + \\omega U)

where ``A = D + L + U`` (``L``/``U`` strictly lower/upper).  It requires no
setup beyond extracting the triangles and is a convenient SPD preconditioner
for CG when ILU/IC is overkill.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.precond.base import Preconditioner, register_preconditioner

__all__ = ["SSORPreconditioner"]


class SSORPreconditioner(Preconditioner):
    """Apply the SSOR preconditioner with relaxation factor ``omega``."""

    name = "ssor"

    def __init__(self, A, omega: float = 1.0) -> None:
        super().__init__(A)
        import scipy.sparse.linalg  # noqa: F401 - binds sp.linalg
        omega = float(omega)
        if not (0.0 < omega < 2.0):
            raise ValueError(f"omega must be in (0, 2), got {omega}")
        self.omega = omega
        diag = self.A.diagonal()
        if np.any(diag == 0.0):
            raise ValueError("SSOR requires a nonzero diagonal")
        D = sp.diags(diag, format="csr")
        L = sp.tril(self.A, k=-1).tocsr()
        U = sp.triu(self.A, k=1).tocsr()
        self._lower = (D + omega * L).tocsr()
        self._upper = (D + omega * U).tocsr()
        self._diag = diag
        self._scale = omega * (2.0 - omega)

    def _solve(self, r: np.ndarray) -> np.ndarray:
        # Solve (D + wL) y = r, then (D + wU) z = D y, scaled by w(2-w).
        y = sp.linalg.spsolve_triangular(self._lower, r, lower=True)
        z = sp.linalg.spsolve_triangular(self._upper, self._diag * y, lower=False)
        return self._scale * z


register_preconditioner("ssor", SSORPreconditioner)
