"""Dirichlet-Neumann operator via the flattened-strip elliptic problem.

Both geometries map the fluid layer onto the strip z in [-1, 0] by one
lift, rho(x, z) = w(z) eta(x) + z depth, and differ only in the weight w:
w = 1 + z for ``flat_bottom(h0)`` (layer over the fixed bottom y = -h0,
w(-1) = 0) and w = 1 for ``parallel_strip(h)`` (layer of thickness h whose
bottom moves with eta).  The transformed potential v solves a
variable-coefficient elliptic equation with v = psi at z = 0 and the
Neumann condition (1 + (w(-1) eta_x)^2) dv/dz = d w(-1) eta_x dv/dx at
z = -1, where d = w' eta + depth is the local depth.

Discretization: Fourier collocation in x (``field.derivative_symbol``),
Chebyshev collocation in z.  The solver is matrix-free GMRES with iterative
refinement, left-preconditioned by M = P_h^-1 S: P_h^-1 inverts the
flat-interface operator at the layer's harmonic-mean depth h through the
diagonalization in the strip table (built once per nz with the z-nodes, D_z
and D_z^2), and S scales the interior rows by the local depth over h.  Where
the local depth varies more than tenfold (_BLEND_RATIO), M applies P_h^-1 S
at three node depths h_k instead and blends the results pointwise in x with
Lagrange weights in log d(x), so that M follows the depth.
Every refinement cycle aims at _TOL ||M b||, and refinement stops early once
a cycle stagnates.  A dense assembly of the same discrete operator is kept
as an oracle path.
psi must be real, as every surface trace of the reduction is.  The GMRES
kernel works in real arithmetic (real FFTs, classical Gram-Schmidt with one
reorthogonalization pass).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import CACHE_MAXSIZE, Field, dealiased_product, derivative_symbol, \
    sobolev_norm, spectral_derivative, x_derivative

__all__ = [
    "Geometry",
    "StripSolution",
    "GeometryError",
    "SolverError",
    "solve_strip",
    "dirichlet_neumann",
    "surface_flux",
    "compute_B_V",
    "shape_derivative",
    "cancellation_residual",
    "flat_dn_multiplier",
]


# GMRES aims at _TOL ||M b||; solve_strip rejects ||M r|| / ||M b|| above
# _ACCEPTED_RESIDUAL; one GMRES cycle takes at most _MAXITER iterations
_TOL = 1e-12
_ACCEPTED_RESIDUAL = 1e-10
_MAXITER = 150
# a refinement cycle that cuts the residual by less than this has stagnated
_STALL_FACTOR = 2.0
_MAX_CYCLES = 3
# M blends flat inverses at _BLEND_NODES depths once max d / min d of the
# local depth exceeds _BLEND_RATIO, and keeps the one depth up to it (the
# README's crossover table); two nodes stagnate at ratio 19
_BLEND_RATIO = 10.0
_BLEND_NODES = 3


class GeometryError(ValueError):
    """Degenerate fluid layer or invalid geometry parameters."""


class SolverError(RuntimeError):
    """Elliptic solve failed to reach the requested residual.

    ``residual_history`` holds the preconditioned residual after each
    refinement cycle and ``iterations`` the total GMRES iterations, so a
    failed solve shows how it stagnated.
    """

    def __init__(self, message, residual=None, residual_history=(), iterations=0):
        super().__init__(message)
        self.residual = residual
        self.residual_history = tuple(residual_history)
        self.iterations = iterations


# w' of the lift weight w(z) = 1 + w' z, per geometry kind
_LIFT_SLOPE = {"flat_bottom": 1.0, "parallel_strip": 0.0}


@dataclass(frozen=True)
class Geometry:
    """Fluid-layer geometry plus g and kappa; the one place that knows the bottom."""

    kind: str  # "flat_bottom" | "parallel_strip"
    depth: float  # h0 for flat_bottom, strip thickness h for parallel_strip
    g: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        if self.kind not in _LIFT_SLOPE:
            raise GeometryError(f"unknown geometry kind {self.kind!r}")
        if not 0 < self.depth < math.inf:  # negated comparisons: NaN fails them
            raise GeometryError("layer depth must be positive and finite")
        if not 0 <= self.g < math.inf:
            raise GeometryError("gravity must be nonnegative and finite")
        if not 0 <= self.kappa < math.inf:
            raise GeometryError("surface tension must be nonnegative and finite")

    def lift(self, z):
        """The weight w(z) of eta in the lift rho, and its slope w'."""
        slope = _LIFT_SLOPE[self.kind]
        return 1.0 + slope * z, slope

    @property
    def fixed_bottom(self) -> bool:
        """w(-1) = 0: the bottom y = -depth does not move with eta."""
        return self.lift(-1.0)[0] == 0.0

    def local_depth(self, eta: Field) -> np.ndarray:
        """d = d(rho)/dz = w' eta + depth; a layer with min d <= 0 is degenerate."""
        d = _LIFT_SLOPE[self.kind] * eta.values.real + self.depth
        if np.min(d) <= 0:
            raise GeometryError(f"fluid layer degenerate: min local depth {np.min(d):.3e}")
        return d


def chebyshev(nz: int):
    """Chebyshev-Gauss-Lobatto nodes on [-1, 0] (z[0]=0, z[-1]=-1) and D_z."""
    if nz < 8:
        raise ValueError("need at least 8 collocation points in z")
    m = nz - 1
    s = np.cos(np.pi * np.arange(nz) / m)  # [1, ..., -1]
    c = np.hstack([2.0, np.ones(m - 1), 2.0]) * (-1.0) ** np.arange(nz)
    ds = np.subtract.outer(s, s) + np.eye(nz)
    d = np.outer(c, 1.0 / c) / ds
    d -= np.diag(d.sum(axis=1))
    # map s in [-1,1] -> z = (s-1)/2 in [-1,0]:  d/dz = 2 d/ds
    return (s - 1.0) / 2.0, 2.0 * d


class _StripOperator:
    """Collocation form of the flattened elliptic operator for one eta."""

    def __init__(self, eta: Field, geo: Geometry, nz: int):
        grid = eta.grid
        self.grid = grid
        self.nz = nz
        self.table = _strip_table(nz)
        self.z, self.Dz, self.Dz2 = self.table.z, self.table.Dz, self.table.Dz2
        # the derivative symbols on the rfft half spectrum
        half = grid.n // 2 + 1
        self._sym1 = derivative_symbol(grid, 1)[:half]
        self._sym2 = derivative_symbol(grid, 2)[:half]
        self.eta_x = ex1 = x_derivative(eta).values.real
        w, wp = geo.lift(self.z[:, None])  # (nz, 1)
        d = geo.local_depth(eta)  # dz rho, z-independent
        b = ex1 / d
        bp = spectral_derivative(b, grid)
        self.czz = 1.0 / d[None, :] ** 2 + w**2 * b[None, :] ** 2
        self.cxz = -2.0 * w * b[None, :]
        self.cz = w * (wp * b[None, :] ** 2 - bp[None, :])
        self.dz_rho_surface = d
        # bottom row: bottom_z dv/dz - bottom_x dv/dx at z = -1
        w_bot = w[-1, 0]
        self.bottom_z = 1.0 + (w_bot * ex1) ** 2
        self.bottom_x = d * w_bot * ex1

    # -- operator application (interior rows + BC rows substituted) ------
    def apply(self, v: np.ndarray) -> np.ndarray:
        n = self.grid.n
        vz = self.Dz @ v
        vzz = self.Dz2 @ v
        # one forward transform serves both x-derivatives
        vh = np.fft.rfft(v, axis=-1)
        vx = np.fft.irfft(vh * self._sym1, n, axis=-1)
        vxx = np.fft.irfft(vh * self._sym2, n, axis=-1)
        out = self.czz * vzz + vxx + self.cxz * (self.Dz @ vx) + self.cz * vz
        out[0, :] = v[0, :]
        out[-1, :] = self.bottom_z * vz[-1, :] - self.bottom_x * vx[-1, :]
        return out

    def rhs(self, psi: Field) -> np.ndarray:
        b = np.zeros((self.nz, self.grid.n))
        b[0, :] = psi.values
        return b

    def dense_matrix(self) -> np.ndarray:
        """Dense assembly of the same discrete operator (oracle path)."""
        grid, nz = self.grid, self.nz
        n = grid.n
        eye_f = np.eye(n)
        Dx = spectral_derivative(eye_f, grid, 1, axis=0)
        Dx2 = spectral_derivative(eye_f, grid, 2, axis=0)
        A = (
            np.diag(self.czz.ravel()) @ np.kron(self.Dz2, eye_f)
            + np.kron(np.eye(nz), Dx2)
            + np.diag(self.cxz.ravel()) @ np.kron(self.Dz, Dx)
            + np.diag(self.cz.ravel()) @ np.kron(self.Dz, eye_f)
        )
        A[:n] = np.eye(n, nz * n)  # Dirichlet rows
        bot = (nz - 1) * n
        zrow = np.kron(self.Dz[-1, :], eye_f)  # (n, nz*n)
        xrow = np.kron(np.eye(nz)[-1, :], Dx)
        A[bot:, :] = self.bottom_z[:, None] * zrow - self.bottom_x[:, None] * xrow
        return A


_StripTable = namedtuple("_StripTable", "z Dz Dz2 left lam right")


@lru_cache(maxsize=CACHE_MAXSIZE)
def _strip_table(nz) -> _StripTable:
    """The z-side tables of one nz, shared by every strip operator and depth.

    z and Dz are the Chebyshev nodes and derivative, Dz2 = Dz @ Dz.  The flat
    strip operator is diagonalized once: B is Dz2 on the interior rows plus
    the Dirichlet (z = 0) and Neumann (z = -1) rows, E projects onto the
    interior rows, and B^-1 E = W diag(lam) W^-1 with lam real and <= 0;
    ``left`` is W^-1 B^-1 and ``right`` is W.  Every array is read-only.
    """
    z, Dz = chebyshev(nz)
    Dz2 = Dz @ Dz
    base = Dz2.copy()
    base[0] = np.eye(nz)[0]
    base[-1] = Dz[-1]
    binv = np.linalg.inv(base)
    lam, w = np.linalg.eig(binv * np.r_[0.0, np.ones(nz - 2), 0.0])
    if np.iscomplexobj(lam):
        raise ValueError(f"flat strip operator has complex modes at nz={nz}")
    arrays = (z, Dz, Dz2, np.linalg.solve(w, binv), lam, w)
    for a in arrays:
        a.flags.writeable = False
    return _StripTable(*arrays)


class _Preconditioner:
    """M = P_h^-1 S on (nz, n) arrays, the left preconditioner of ``op``.

    P_h is the flat operator at depth h (Dz^2/h^2 - xi^2 on interior rows)
    and S scales the interior rows by d/h, d = ``op.dz_rho_surface`` the
    local depth.  At the harmonic-mean depth h = 1/mean(1/d) the x-mean of
    the scaled z-coefficient 1/(h d) is the flat 1/h^2.  Per mode xi,
    P_h^-1 = W diag(1/(1 - xi^2 h^2 lam)) W^-1 B^-1 diag(1, h^2, .., h^2, 1).

    Where max d / min d exceeds _BLEND_RATIO, one depth fits the layer
    poorly, and M freezes the depth pointwise instead (the parametrix idea
    of Alazard & Metivier): it applies P_h^-1 S at the _BLEND_NODES
    Chebyshev nodes h_k in log d over [min d, max d] and blends the results
    in x with the Lagrange weights l_k(log d(x)), which sum to 1.  S still
    scales only the interior rows, by d/h_k.
    """

    def __init__(self, op: _StripOperator):
        d = op.dz_rho_surface
        self.depth = h = float(1.0 / np.mean(1.0 / d))
        self.right = op.table.right
        if np.max(d) <= _BLEND_RATIO * np.min(d):
            nodes, self.weights = np.array([h]), None
            self.left = op.table.left
            self.row_scale = d * h  # S, then the h^2 of the interior rows
        else:
            nodes, self.weights = _blend_weights(d)
            # the interior rows take d before the transform and h_k after it
            cols = np.ones((nodes.size, 1, op.nz))
            cols[:, :, 1:-1] = nodes[:, None, None]
            self.left = op.table.left * cols
            self.row_scale = d
        self.nodes = tuple(nodes.tolist())
        # xi^2 is minus the operator's own d^2/dx^2 symbol
        hh_lam = (nodes * nodes)[:, None] * op.table.lam
        gain = 1.0 / (1.0 + hh_lam[:, :, None] * op._sym2)
        self.gain = gain[0] if self.weights is None else gain

    def __call__(self, w: np.ndarray) -> np.ndarray:
        w = w.copy()
        w[1:-1] *= self.row_scale
        # the z-matrices act on the interleaved real and imaginary parts
        wh = self.left @ np.fft.rfft(w, axis=-1).view(np.float64)
        wh = self.right @ (wh.view(np.complex128) * self.gain).view(np.float64)
        v = np.fft.irfft(wh.view(np.complex128), w.shape[-1], axis=-1)
        return v if self.weights is None else np.einsum("kx,kzx->zx", self.weights, v)


def _blend_weights(d: np.ndarray):
    """The node depths h_k and the Lagrange weights l_k(log d(x)), shape (K, n).

    The nodes are the Chebyshev points of log d over [min d, max d].
    """
    s = np.log(d)
    mid, half = 0.5 * (s.max() + s.min()), 0.5 * (s.max() - s.min())
    nodes = mid - half * np.cos(np.pi * (np.arange(_BLEND_NODES) + 0.5) / _BLEND_NODES)
    weights = np.ones((_BLEND_NODES, s.size))
    for k in range(_BLEND_NODES):
        for j in range(_BLEND_NODES):
            if j != k:
                weights[k] *= (s - nodes[j]) / (nodes[k] - nodes[j])
    return np.exp(nodes), weights


@dataclass
class StripSolution:
    """Lifted potential v(x, z) on the flattened strip with its residual.

    ``residual`` is ||M (A v - b)|| / ||M b||, the error-equivalent metric
    of the preconditioned system with M = P_h^-1 S; the GMRES and the dense
    oracle path both report it.  ``precond_depth`` is the harmonic-mean
    depth h and ``precond_nodes`` the depths M inverts the flat operator at:
    (h,) alone, or the blend's node depths h_k.  ``residual_history`` holds
    the residual after each GMRES refinement cycle and ``iterations`` the
    total GMRES iterations (empty and 0 for the dense oracle path).
    """

    v: np.ndarray  # (nz, n), v[0] is the surface row z = 0; z is operator.z
    residual: float
    operator: _StripOperator
    residual_history: tuple = ()
    iterations: int = 0
    precond_depth: float = math.nan
    precond_nodes: tuple = ()

    def trace_dn(self) -> Field:
        """(1+eta_x^2)/dz_rho * dv/dz - eta_x * dv/dx at z = 0."""
        op = self.operator
        vz0 = op.Dz[0] @ self.v
        vx0 = spectral_derivative(self.v[0], op.grid)
        g = (1.0 + op.eta_x**2) / op.dz_rho_surface * vz0 - op.eta_x * vx0
        return Field(op.grid, g)


def solve_strip(eta: Field, psi: Field, geo: Geometry, nz: int,
                method: str = "gmres") -> StripSolution:
    """Solve the flattened strip problem for the potential v with v|_{z=0}=psi."""
    if eta.grid != psi.grid:
        raise ValueError("eta and psi must live on the same grid")
    if np.iscomplexobj(psi.values):
        raise ValueError("psi must be real")
    op = _StripOperator(eta, geo, nz)
    precond = _Preconditioner(op)
    b = op.rhs(psi)
    history, iterations = (), 0
    if np.linalg.norm(b) == 0:
        v, res = np.zeros_like(b), 0.0
    elif method == "dense":
        A = op.dense_matrix()
        v = np.linalg.solve(A, b.ravel()).reshape(nz, eta.grid.n)
        r = (A @ v.ravel()).reshape(v.shape) - b
        res = np.linalg.norm(precond(r)) / np.linalg.norm(precond(b))
    elif method == "gmres":
        v, history, iterations = _gmres_solve(op, precond, b)
        res = history[-1]
    else:
        raise ValueError(f"unknown solve method {method!r}")

    if res > _ACCEPTED_RESIDUAL:
        cycles = (f"{iterations} GMRES iterations, cycle residuals "
                  + ", ".join(f"{h:.3e}" for h in history) if history
                  else "direct solve, no GMRES cycles")
        nodes = (" (nodes " + ", ".join(f"{h:.6g}" for h in precond.nodes) + ")"
                 if len(precond.nodes) > 1 else "")
        raise SolverError(
            f"strip solve residual {res:.3e} above tolerance (method={method}, "
            f"preconditioner depth {precond.depth:.6g}{nodes}, {cycles})",
            residual=res, residual_history=history, iterations=iterations,
        )
    return StripSolution(v, res, op, history, iterations, precond.depth, precond.nodes)


def _gmres_solve(op: _StripOperator, precond, b: np.ndarray):
    """GMRES with iterative refinement, left-preconditioned by ``precond``.

    Every cycle aims at the solve's own target ||M r|| <= 0.2 _TOL ||M b||.
    Refinement stops when ||M r|| <= _TOL ||M b||, or early when a cycle
    cuts the residual by less than ``_STALL_FACTOR`` while it is still above
    the accepted residual.

    Returns the solution, ||M r|| / ||M b|| after each cycle and the total
    GMRES iterations.
    """
    shape = b.shape

    def apply_a(w):
        return op.apply(w.reshape(shape)).ravel()

    def apply_m(w):
        return precond(w.reshape(shape)).ravel()

    b = b.ravel()
    z = apply_m(b)  # M r for the zero initial guess
    mb = float(np.linalg.norm(z))
    v = np.zeros(b.size)
    history, iterations = [], 0
    for _ in range(_MAX_CYCLES):
        dv, its = _pgmres(apply_a, apply_m, z, 0.2 * _TOL * mb)
        v += dv
        iterations += its
        z = apply_m(b - apply_a(v))
        mr = float(np.linalg.norm(z))
        before = history[-1] if history else 1.0
        history.append(mr / mb)
        if mr <= _TOL * mb:
            break
        if history[-1] > max(_ACCEPTED_RESIDUAL, before / _STALL_FACTOR):
            break  # stagnated: solve_strip rejects it with this history
    return v.reshape(shape), tuple(history), iterations


def _pgmres(apply_a, apply_m, z0, atol):
    """Left-preconditioned full GMRES with Givens rotations, real arithmetic.

    ``z0`` is the preconditioned residual M r of the system to correct; the
    iteration stops once the preconditioned residual is at most ``atol``.
    Returns the correction and the number of iterations taken, at most
    ``_MAXITER``.  The Arnoldi
    step orthogonalizes by classical Gram-Schmidt with one full
    reorthogonalization pass (CGS2), as two matrix-vector products per pass.
    """
    beta = np.linalg.norm(z0)
    if beta == 0:
        return np.zeros_like(z0), 0
    m = min(_MAXITER, z0.size)
    basis = np.empty((m + 1, z0.size))
    basis[0] = z0 / beta
    h = np.zeros((m, m))  # upper triangle of the rotated Hessenberg matrix
    # rotations and the rotated right-hand side as Python floats: the
    # scalar recurrences below are faster on them than on numpy scalars
    cs, sn = [], []
    g = [float(beta)]
    k_used = steps = 0
    for k in range(m):
        steps = k + 1
        w = apply_m(apply_a(basis[k]))
        q = basis[: k + 1]
        c = q @ w
        w -= c @ q
        d = q @ w
        w -= d @ q
        hk1 = float(np.linalg.norm(w))
        if hk1 > 0:
            basis[k + 1] = w / hk1
        col = (c + d).tolist()
        # previously accumulated rotations
        for i in range(k):
            col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                  -sn[i] * col[i] + cs[i] * col[i + 1])
        a = col[k]
        r = math.hypot(a, hk1)
        if r == 0:
            break
        cs.append(a / r)
        sn.append(hk1 / r)
        col[k] = r
        h[: k + 1, k] = col
        g.append(-sn[k] * g[k])
        g[k] = cs[k] * g[k]
        k_used = k + 1
        if abs(g[k + 1]) <= atol or hk1 == 0:
            break
    if k_used == 0:
        return np.zeros_like(z0), steps
    y = np.linalg.solve(h[:k_used, :k_used], g[:k_used])
    return y @ basis[:k_used], steps


def dirichlet_neumann(eta: Field, psi: Field, geo: Geometry, nz: int,
                      method: str = "gmres") -> Field:
    """G(eta)psi: the scaled normal derivative of the lifted potential."""
    return solve_strip(eta, psi, geo, nz, method=method).trace_dn()


def flat_dn_multiplier(geo: Geometry, xi: np.ndarray) -> np.ndarray:
    """Flat-interface symbol |xi| tanh(depth |xi|) of G(0)."""
    return np.abs(xi) * np.tanh(geo.depth * np.abs(xi))


def surface_flux(eta: Field, psi: Field, g_psi: Field) -> Field:
    """eta_x psi_x + G(eta)psi, the numerator of B (dealiased product)."""
    return dealiased_product(x_derivative(eta), x_derivative(psi)) + g_psi


def compute_B_V(eta: Field, psi: Field, g_psi: Field,
                flux: Field | None = None) -> tuple[Field, Field]:
    """Vertical and horizontal velocity traces B and V at the surface.

    ``flux`` is :func:`surface_flux` of the same (eta, psi, g_psi) when the
    caller holds it already.
    """
    ex = x_derivative(eta)
    num = surface_flux(eta, psi, g_psi) if flux is None else flux
    b_field = Field(eta.grid, num.values / (1.0 + ex.values**2))
    v_field = x_derivative(psi) - dealiased_product(b_field, ex)
    return b_field, v_field


def shape_derivative(eta: Field, psi: Field, h_dir: Field, geo: Geometry,
                     nz: int) -> Field:
    """Derivative of eta -> G(eta)psi in the direction h_dir (fixed bottom).

    Only meaningful when ``geo.fixed_bottom``: a bottom that moves with eta
    (parallel strip) breaks the fixed-bottom formula.
    """
    if not geo.fixed_bottom:
        raise GeometryError("shape derivative requires a fixed bottom (flat_bottom)")
    g_psi = dirichlet_neumann(eta, psi, geo, nz)
    b_field, v_field = compute_B_V(eta, psi, g_psi)
    bh = dealiased_product(b_field, h_dir)
    vh = dealiased_product(v_field, h_dir)
    return -dirichlet_neumann(eta, bh, geo, nz) - x_derivative(vh)


def cancellation_residual(eta: Field, psi: Field, geo: Geometry, nz: int) -> float:
    """L^2 size of G(eta)B + d/dx V, which vanishes in the continuum limit."""
    if not geo.fixed_bottom:
        raise GeometryError("cancellation identity requires a fixed bottom")
    g_psi = dirichlet_neumann(eta, psi, geo, nz)
    b_field, v_field = compute_B_V(eta, psi, g_psi)
    g_b = dirichlet_neumann(eta, b_field, geo, nz)
    return sobolev_norm(g_b + x_derivative(v_field), 0.0)
