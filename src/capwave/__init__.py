"""capwave: a numerical laboratory for 1D gravity-capillary water waves.

Modules
-------
field      periodic spectral fields, Sobolev and weighted norms
dno        Dirichlet-Neumann operator via the flattened-strip solve
symbols    explicit symbols: Dirichlet-Neumann, curvature, symmetrizer,
           parametrix, factorization, mollifier, elliptic weights
paradiff   paradifferential quantization and measured calculus orders
evolution  raw / paralinearized / symmetrized / mollified time stepping
smoothing  escape function, dispersive bracket bound, Kato diagnostics
verify     oracle batteries turning the identities into checks
cli        batch runner and report emission
"""

from .dno import Geometry, dirichlet_neumann, solve_strip
from .field import Field, Grid, sobolev_norm, weighted_norm
from .evolution import WaveState, run, step, zakharov_rhs

__version__ = "0.1.0"

__all__ = [
    "Field",
    "Grid",
    "Geometry",
    "WaveState",
    "dirichlet_neumann",
    "solve_strip",
    "sobolev_norm",
    "weighted_norm",
    "zakharov_rhs",
    "step",
    "run",
    "__version__",
]
