"""Paper-scale problem descriptions used by the time model.

The reproduction executes solvers on reduced grids but *accounts* time as if
the run were one of the paper's weak-scaling configurations (Table 3:
256 processes / 1088^3 unknowns up to 2,048 processes / 2160^3 unknowns).
:class:`ExperimentScale` carries the paper-scale sizes needed by
:class:`~repro.cluster.machine.ClusterModel` — how many bytes one dynamic
vector occupies, how large the static data (matrix, preconditioner, right-hand
side) is, and how those bytes are spread over processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["ExperimentScale", "PAPER_WEAK_SCALING", "paper_scale"]

_DOUBLE = 8  # bytes per element

#: Grid edge length per process count in the paper's weak-scaling study
#: (Table 3, "Problem Size" column).
PAPER_WEAK_SCALING: Dict[int, int] = {
    256: 1088,
    512: 1368,
    768: 1568,
    1024: 1728,
    1280: 1856,
    1536: 1968,
    1792: 2064,
    2048: 2160,
}


@dataclass(frozen=True)
class ExperimentScale:
    """One weak-scaling configuration at paper scale.

    Attributes
    ----------
    num_processes:
        MPI processes of the modeled job.
    grid_n:
        Grid points per dimension; the global vector has ``grid_n ** 3``
        elements.
    static_multiplier:
        Static-variable footprint as a multiple of one dynamic vector.  The
        7-point CSR matrix stores ~7 nonzeros/row (12 bytes each) plus the
        right-hand side and a block-Jacobi/ILU preconditioner, ~12 vectors'
        worth of data in total.
    """

    num_processes: int
    grid_n: int
    static_multiplier: float = 12.0

    def __post_init__(self) -> None:
        if self.num_processes < 1:
            raise ValueError("num_processes must be >= 1")
        if self.grid_n < 1:
            raise ValueError("grid_n must be >= 1")
        if self.static_multiplier < 0:
            raise ValueError("static_multiplier must be >= 0")

    @property
    def global_elements(self) -> int:
        """Number of unknowns of the paper-scale problem (``grid_n ** 3``)."""
        return int(self.grid_n) ** 3

    @property
    def vector_bytes(self) -> float:
        """Bytes of one full dynamic vector at paper scale."""
        return float(self.global_elements * _DOUBLE)

    @property
    def static_bytes(self) -> float:
        """Bytes of the static variables at paper scale."""
        return self.static_multiplier * self.vector_bytes


def paper_scale(num_processes: int) -> ExperimentScale:
    """The :class:`ExperimentScale` matching one of the paper's process counts."""
    try:
        grid_n = PAPER_WEAK_SCALING[int(num_processes)]
    except KeyError:
        raise KeyError(
            f"no paper configuration for {num_processes} processes; "
            f"known: {sorted(PAPER_WEAK_SCALING)}"
        ) from None
    return ExperimentScale(num_processes=int(num_processes), grid_n=grid_n)
