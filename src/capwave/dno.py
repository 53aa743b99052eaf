"""Dirichlet-Neumann operator via the flattened-strip elliptic problem.

Two exact geometries are supported, both mapping the fluid layer onto the
strip z in [-1, 0] where the transformed potential v solves a
variable-coefficient elliptic equation with v = psi at z = 0:

* ``flat_bottom(h0)``: layer between y = -h0 and y = eta(x), lifted by
  rho(x, z) = (1+z) eta(x) + z h0; physical Neumann bottom gives
  dv/dz = 0 at z = -1.
* ``parallel_strip(h)``: layer between y = eta(x) - h and y = eta(x),
  lifted by rho(x, z) = h z + eta(x); the bottom moves with eta and its
  Neumann condition reads (1 + eta_x^2) dv/dz = h eta_x dv/dx at z = -1.

Discretization: Fourier collocation in x, Chebyshev collocation in z.
The solver is matrix-free GMRES with iterative refinement, left-
preconditioned by M = P_h^-1 S: P_h^-1 inverts the flat-interface operator at
the layer's harmonic-mean depth h through one cached diagonalization per nz,
and S scales the interior rows by the local depth over h.  Every refinement
cycle aims at tol ||M b||, and refinement stops early once a cycle
stagnates.  A dense assembly of the same discrete operator is kept as an
oracle path.
The GMRES kernel works in real arithmetic (real FFTs, classical Gram-Schmidt
with one reorthogonalization pass); a complex psi is solved through
real-linearity, G(Re psi) + i G(Im psi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import CACHE_MAXSIZE, Field, dealiased_product, sobolev_norm, \
    spectral_derivative, x_derivative

__all__ = [
    "Geometry",
    "StripSolution",
    "GeometryError",
    "SolverError",
    "solve_strip",
    "dirichlet_neumann",
    "compute_B_V",
    "shape_derivative",
    "cancellation_residual",
    "flat_dn_multiplier",
]


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


@dataclass(frozen=True)
class Geometry:
    """Fluid-layer geometry plus the physical constants g and kappa."""

    kind: str  # "flat_bottom" | "parallel_strip"
    depth: float  # h0 for flat_bottom, strip thickness h for parallel_strip
    g: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        if self.kind not in ("flat_bottom", "parallel_strip"):
            raise GeometryError(f"unknown geometry kind {self.kind!r}")
        if self.depth <= 0:
            raise GeometryError("layer depth must be positive")
        if self.g < 0:
            raise GeometryError("gravity must be nonnegative")
        if self.kappa < 0:
            raise GeometryError("surface tension must be nonnegative")


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
        self.geo = geo
        self.nz = nz
        self.z, self.Dz = chebyshev(nz)
        self.Dz2 = self.Dz @ self.Dz
        # half-spectrum derivative symbols for rfft; Nyquist zeroed when odd
        xi = np.abs(grid.xi[: grid.n // 2 + 1])
        self._sym1 = 1j * xi
        self._sym1[-1] = 0.0
        self._sym2 = -xi**2
        ex = eta.values.real
        ex1 = x_derivative(eta).values.real
        self.eta_x = ex1

        zc = self.z[:, None]  # (nz, 1)
        if geo.kind == "flat_bottom":
            depth = geo.depth + ex  # dz rho, z-independent
            if np.min(depth) <= 0:
                raise GeometryError(
                    f"fluid layer degenerate: min(h0 + eta) = {np.min(depth):.3e}"
                )
            b = ex1 / depth
            bp = spectral_derivative(b, grid.xi)
            self.czz = 1.0 / depth[None, :] ** 2 + (1.0 + zc) ** 2 * b[None, :] ** 2
            self.cxz = -2.0 * (1.0 + zc) * b[None, :]
            self.cz = (1.0 + zc) * (b[None, :] ** 2 - bp[None, :])
            self.dz_rho_surface = depth
        else:  # parallel_strip
            h = geo.depth
            ex2 = x_derivative(eta, 2).values.real
            ones = np.ones((nz, 1))
            self.czz = ones * ((1.0 + ex1**2) / h**2)[None, :]
            self.cxz = ones * (-2.0 * ex1 / h)[None, :]
            self.cz = ones * (-ex2 / h)[None, :]
            self.dz_rho_surface = np.full(grid.n, h)

    # -- operator application (interior rows + BC rows substituted) ------
    def apply(self, v: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(v):
            return self.apply(v.real) + 1j * self.apply(v.imag)
        n = self.grid.n
        vz = self.Dz @ v
        vzz = self.Dz2 @ v
        # one forward transform serves both x-derivatives
        vh = np.fft.rfft(v, axis=-1)
        vx = np.fft.irfft(vh * self._sym1, n, axis=-1)
        vxx = np.fft.irfft(vh * self._sym2, n, axis=-1)
        out = self.czz * vzz + vxx + self.cxz * (self.Dz @ vx) + self.cz * vz
        out[0, :] = v[0, :]
        if self.geo.kind == "flat_bottom":
            out[-1, :] = vz[-1, :]
        else:
            out[-1, :] = (1.0 + self.eta_x**2) * vz[-1, :] - self.geo.depth * self.eta_x * vx[-1, :]
        return out

    def rhs(self, psi: Field) -> np.ndarray:
        b = np.zeros((self.nz, self.grid.n), dtype=psi.values.dtype)
        b[0, :] = psi.values
        return b

    def dense_matrix(self) -> np.ndarray:
        """Dense assembly of the same discrete operator (oracle path)."""
        grid, nz = self.grid, self.nz
        n = grid.n
        eye_f = np.eye(n)
        fx = np.fft.fft(eye_f, axis=0)
        sym1 = (1j * grid.xi).copy()
        sym1[n // 2] = 0.0
        Dx = np.fft.ifft(sym1[:, None] * fx, axis=0).real
        Dx2 = np.fft.ifft((-(grid.xi**2))[:, None] * fx, axis=0).real
        A = (
            np.diag(self.czz.ravel()) @ np.kron(self.Dz2, eye_f)
            + np.kron(np.eye(nz), Dx2)
            + np.diag(self.cxz.ravel()) @ np.kron(self.Dz, Dx)
            + np.diag(self.cz.ravel()) @ np.kron(self.Dz, eye_f)
        )
        A[:n] = np.eye(n, nz * n)  # Dirichlet rows
        bot = (nz - 1) * n
        zrow = np.kron(self.Dz[-1, :], eye_f)  # (n, nz*n)
        if self.geo.kind == "flat_bottom":
            A[bot:, :] = zrow
        else:
            xrow = np.kron(np.eye(nz)[-1, :], Dx)
            A[bot:, :] = (1.0 + self.eta_x**2)[:, None] * zrow \
                - self.geo.depth * self.eta_x[:, None] * xrow
        return A


@lru_cache(maxsize=CACHE_MAXSIZE)
def _flat_eigensystem(nz):
    """Diagonalization of the flat strip operator, shared by every depth and mode.

    B is Dz^2 on the interior rows plus the Dirichlet (z = 0) and Neumann
    (z = -1) rows, and E projects onto the interior rows.  Returns
    (W^-1 B^-1, lam, W) with B^-1 E = W diag(lam) W^-1; lam is real and <= 0.
    """
    _, Dz = chebyshev(nz)
    base = Dz @ Dz
    base[0] = np.eye(nz)[0]
    base[-1] = Dz[-1]
    binv = np.linalg.inv(base)
    lam, w = np.linalg.eig(binv * np.r_[0.0, np.ones(nz - 2), 0.0])
    if np.iscomplexobj(lam):
        raise ValueError(f"flat strip operator has complex modes at nz={nz}")
    return np.linalg.solve(w, binv), lam, w


class _Preconditioner:
    """M = P_h^-1 S on (nz, n) arrays, the left preconditioner of ``op``.

    P_h is the flat operator at depth h (Dz^2/h^2 - xi^2 on interior rows)
    and S scales the interior rows by d/h, d = ``op.dz_rho_surface`` the
    local depth.  At the harmonic-mean depth h = 1/mean(1/d) the x-mean of
    the scaled z-coefficient 1/(h d) is the flat 1/h^2.  Per mode xi,
    P_h^-1 = W diag(1/(1 - xi^2 h^2 lam)) W^-1 B^-1 diag(1, h^2, .., h^2, 1).
    """

    def __init__(self, op: _StripOperator):
        d = op.dz_rho_surface
        self.depth = h = float(1.0 / np.mean(1.0 / d))
        self.left, lam, self.right = _flat_eigensystem(op.nz)
        xi2 = op.grid.xi[: op.grid.n // 2 + 1] ** 2
        self.gain = 1.0 / (1.0 - (h * h * lam)[:, None] * xi2[None, :])
        self.row_scale = d * h  # S, then the h^2 of the interior rows

    def __call__(self, w: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(w):
            return self(w.real) + 1j * self(w.imag)
        w = w.copy()
        w[1:-1] *= self.row_scale
        # the z-matrices act on the interleaved real and imaginary parts
        wh = self.left @ np.fft.rfft(w, axis=-1).view(np.float64)
        wh = self.right @ (wh.view(np.complex128) * self.gain).view(np.float64)
        return np.fft.irfft(wh.view(np.complex128), w.shape[-1], axis=-1)


@dataclass
class StripSolution:
    """Lifted potential v(x, z) on the flattened strip with its residual.

    ``residual`` is ||M (A v - b)|| / ||M b||, the error-equivalent metric
    of the preconditioned system with M = P_h^-1 S at the flat depth
    h = ``precond_depth``; the GMRES and the dense oracle path both report
    it.  ``residual_history`` holds it after each GMRES refinement cycle and
    ``iterations`` the total GMRES iterations (empty and 0 for the dense
    oracle path).
    """

    v: np.ndarray  # (nz, n), v[0] is the surface row z = 0
    z: np.ndarray
    grid: "object"
    geo: Geometry
    eta: Field
    psi: Field
    residual: float
    operator: _StripOperator
    residual_history: tuple = ()
    iterations: int = 0
    precond_depth: float = math.nan

    def trace_dn(self) -> Field:
        """(1+eta_x^2)/dz_rho * dv/dz - eta_x * dv/dx at z = 0."""
        op = self.operator
        vz0 = op.Dz[0] @ self.v
        vx0 = spectral_derivative(self.v[0], self.grid.xi)
        g = (1.0 + op.eta_x**2) / op.dz_rho_surface * vz0 - op.eta_x * vx0
        return Field(self.grid, g)


def solve_strip(
    eta: Field,
    psi: Field,
    geo: Geometry,
    nz: int,
    tol: float = 1e-12,
    method: str = "gmres",
    maxiter: int = 150,
) -> StripSolution:
    """Solve the flattened strip problem for the potential v with v|_{z=0}=psi."""
    if eta.grid != psi.grid:
        raise ValueError("eta and psi must live on the same grid")
    if nz < 8:
        raise ValueError("nz must be at least 8")
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
        v, history, iterations = _gmres_solve(op, precond, b, tol, maxiter)
        res = history[-1]
    else:
        raise ValueError(f"unknown solve method {method!r}")

    if res > _accepted_residual(tol):
        cycles = (f"{iterations} GMRES iterations, cycle residuals "
                  + ", ".join(f"{h:.3e}" for h in history) if history
                  else "direct solve, no GMRES cycles")
        raise SolverError(
            f"strip solve residual {res:.3e} above tolerance (method={method}, "
            f"preconditioner depth {precond.depth:.6g}, {cycles})",
            residual=res, residual_history=history, iterations=iterations,
        )
    return StripSolution(v, op.z, eta.grid, geo, eta, psi, res, op, history, iterations,
                         precond.depth)


def _accepted_residual(tol: float) -> float:
    """Largest ||M r|| / ||M b|| that ``solve_strip`` accepts for ``tol``."""
    return max(tol * 100, 1e-10)


# a refinement cycle that cuts the residual by less than this has stagnated
_STALL_FACTOR = 2.0
_MAX_CYCLES = 3


def _gmres_solve(op: _StripOperator, precond, b: np.ndarray, tol: float, maxiter: int):
    """GMRES with iterative refinement, left-preconditioned by ``precond``.

    A complex ``b`` is solved by real-linearity: its real and imaginary parts
    are separate real solves, run cycle by cycle side by side.  Every cycle
    of a part aims at the solve's own target ||M r|| <= 0.2 tol ||M b||.
    Refinement stops when every part meets tol ||M b||, or early when a
    cycle cuts the residual by less than ``_STALL_FACTOR`` while it is still
    above the accepted residual.

    Returns the solution, ||M r|| / ||M b|| over all parts after each cycle
    (a part that stopped early keeps its last residual) and the total GMRES
    iterations.
    """
    shape = b.shape

    def apply_a(w):
        return op.apply(w.reshape(shape)).ravel()

    def apply_m(w):
        return precond(w.reshape(shape)).ravel()

    parts = [p.ravel() for p in ((b.real, b.imag) if np.iscomplexobj(b) else (b,))]
    zs = [apply_m(p) for p in parts]  # M r for the zero initial guess
    mb = [float(np.linalg.norm(z)) for z in zs]
    mr = list(mb)
    mb_all = np.hypot.reduce(mb)
    vs = [np.zeros(p.size) for p in parts]
    history, iterations = [], 0
    for _ in range(_MAX_CYCLES):
        for i, part in enumerate(parts):
            if mr[i] <= tol * mb[i]:
                continue  # converged, or a zero part
            dv, its = _pgmres(apply_a, apply_m, zs[i], 0.2 * tol * mb[i], maxiter)
            vs[i] += dv
            iterations += its
            zs[i] = apply_m(part - apply_a(vs[i]))
            mr[i] = float(np.linalg.norm(zs[i]))
        before = history[-1] if history else 1.0
        history.append(float(np.hypot.reduce(mr) / mb_all))
        if all(r <= tol * m for r, m in zip(mr, mb)):
            break
        if history[-1] > max(_accepted_residual(tol), before / _STALL_FACTOR):
            break  # stagnated: solve_strip rejects it with this history
    v = vs[0] if len(vs) == 1 else vs[0] + 1j * vs[1]
    return v.reshape(shape), tuple(history), iterations


def _pgmres(apply_a, apply_m, z0, atol, maxiter):
    """Left-preconditioned full GMRES with Givens rotations, real arithmetic.

    ``z0`` is the preconditioned residual M r of the system to correct; the
    iteration stops once the preconditioned residual is at most ``atol``.
    Returns the correction and the number of iterations taken.  The Arnoldi
    step orthogonalizes by classical Gram-Schmidt with one full
    reorthogonalization pass (CGS2), as two matrix-vector products per pass.
    """
    beta = np.linalg.norm(z0)
    if beta == 0:
        return np.zeros_like(z0), 0
    m = min(maxiter, z0.size)
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
                      tol: float = 1e-12, method: str = "gmres") -> Field:
    """G(eta)psi: the scaled normal derivative of the lifted potential."""
    return solve_strip(eta, psi, geo, nz, tol=tol, method=method).trace_dn()


def flat_dn_multiplier(geo: Geometry, xi: np.ndarray) -> np.ndarray:
    """Flat-interface symbol |xi| tanh(depth |xi|) of G(0)."""
    return np.abs(xi) * np.tanh(geo.depth * np.abs(xi))


def compute_B_V(eta: Field, psi: Field, g_psi: Field) -> tuple[Field, Field]:
    """Vertical and horizontal velocity traces B and V at the surface."""
    ex = x_derivative(eta)
    px = x_derivative(psi)
    num = dealiased_product(ex, px) + g_psi
    b_field = Field(eta.grid, num.values / (1.0 + ex.values**2))
    v_field = px - dealiased_product(b_field, ex)
    return b_field, v_field


def shape_derivative(eta: Field, psi: Field, h_dir: Field, geo: Geometry,
                     nz: int, tol: float = 1e-12) -> Field:
    """Derivative of eta -> G(eta)psi in the direction h_dir (fixed bottom).

    Only meaningful for flat_bottom: for the parallel strip the bottom moves
    with eta and the fixed-bottom formula does not apply.
    """
    if geo.kind != "flat_bottom":
        raise GeometryError("shape derivative requires a fixed bottom (flat_bottom)")
    g_psi = dirichlet_neumann(eta, psi, geo, nz, tol=tol)
    b_field, v_field = compute_B_V(eta, psi, g_psi)
    bh = dealiased_product(b_field, h_dir)
    vh = dealiased_product(v_field, h_dir)
    return -dirichlet_neumann(eta, bh, geo, nz, tol=tol) - x_derivative(vh)


def cancellation_residual(eta: Field, psi: Field, geo: Geometry, nz: int,
                          tol: float = 1e-12) -> float:
    """L^2 size of G(eta)B + d/dx V, which vanishes in the continuum limit."""
    if geo.kind != "flat_bottom":
        raise GeometryError("cancellation identity requires a fixed bottom")
    g_psi = dirichlet_neumann(eta, psi, geo, nz, tol=tol)
    b_field, v_field = compute_B_V(eta, psi, g_psi)
    g_b = dirichlet_neumann(eta, b_field, geo, nz, tol=tol)
    return sobolev_norm(g_b + x_derivative(v_field), 0.0)
