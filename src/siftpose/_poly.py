"""Small dense polynomial algebra over fixed monomial bases.

The minimal solvers all expand the determinant and trace constraints of a
matrix pencil M(x) = sum_i x_i B_i + B_last into coefficient matrices over a
fixed monomial ordering. Matrices with polynomial entries are stored as
arrays of shape (3, 3, n_monomials); products scatter coefficient outer
products through precomputed one-hot tables, which keeps the expansion exact.
"""
from __future__ import annotations

import numpy as np


def _scatter_table(exps_a, exps_b, exps_out) -> np.ndarray:
    index = {e: i for i, e in enumerate(exps_out)}
    table = np.zeros((len(exps_a) * len(exps_b), len(exps_out)))
    k = 0
    for ea in exps_a:
        for eb in exps_b:
            key = tuple(x + y for x, y in zip(ea, eb))
            table[k, index[key]] = 1.0
            k += 1
    return table


class MonomialAlgebra:
    """Bases of degree 1..3 in a fixed variable count plus their product tables."""

    def __init__(self, exps1, exps2, exps3):
        self.exps1 = list(exps1)
        self.exps2 = list(exps2)
        self.exps3 = list(exps3)
        self.n1 = len(self.exps1)
        self.n2 = len(self.exps2)
        self.n3 = len(self.exps3)
        self.s11 = _scatter_table(self.exps1, self.exps1, self.exps2)
        self.s21 = _scatter_table(self.exps2, self.exps1, self.exps3)

    def monomials3(self, values: np.ndarray) -> np.ndarray:
        """Evaluate the degree-3 basis at stacked variable values (..., nvars)."""
        values = np.asarray(values, dtype=float)
        out = np.empty(values.shape[:-1] + (self.n3,))
        for i, exp in enumerate(self.exps3):
            term = np.ones(values.shape[:-1])
            for var, power in enumerate(exp):
                if power:
                    term = term * values[..., var] ** power
            out[..., i] = term
        return out


# Two parameters (x, y): the constant basis vector comes last, and the first
# nine degree-3 monomials match the solved monomial vector ordering
# [x^3, y^3, x^2 y, x y^2, x^2, y^2, x y, x, y].
BIVARIATE = MonomialAlgebra(
    exps1=[(1, 0), (0, 1), (0, 0)],
    exps2=[(2, 0), (0, 2), (1, 1), (1, 0), (0, 1), (0, 0)],
    exps3=[(3, 0), (0, 3), (2, 1), (1, 2), (2, 0), (0, 2), (1, 1), (1, 0), (0, 1), (0, 0)],
)

# Three parameters (x, y, z): degree-3 monomials are ordered with the ten
# cubics first (grevlex) and the ten quotient-basis monomials
# [x^2, xy, xz, y^2, yz, z^2, x, y, z, 1] last.
TRIVARIATE = MonomialAlgebra(
    exps1=[(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)],
    exps2=[(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
           (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)],
    exps3=[(3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1), (1, 0, 2),
           (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
           (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
           (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)],
)


def bivariate_monomials(x: float, y: float) -> np.ndarray:
    """Degree-3 basis [x3 y3 x2y xy2 x2 y2 xy x y 1] at a point."""
    x2, y2 = x * x, y * y
    return np.array([x2 * x, y2 * y, x2 * y, x * y2, x2, y2, x * y, x, y, 1.0])


def bivariate_gradient(x: float, y: float) -> np.ndarray:
    """Partial derivatives of the bivariate degree-3 basis; shape (10, 2)."""
    return np.array([
        [3 * x * x, 0.0], [0.0, 3 * y * y], [2 * x * y, x * x], [y * y, 2 * x * y],
        [2 * x, 0.0], [0.0, 2 * y], [y, x], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0],
    ])


def trivariate_gradient(states: np.ndarray) -> np.ndarray:
    """Partial derivatives of the trivariate degree-3 basis at states (m, 3).

    Returns shape (m, 20, 3), rows ordered as TRIVARIATE.exps3.
    """
    x, y, z = states[:, 0], states[:, 1], states[:, 2]
    x2, y2, z2 = x * x, y * y, z * z
    dxy, dxz, dyz = 2 * x * y, 2 * x * z, 2 * y * z
    out = np.zeros((states.shape[0], 20, 3))
    for row, col, value in ((0, 0, 3 * x2), (1, 0, dxy), (1, 1, x2), (2, 0, dxz), (2, 2, x2),
                            (3, 0, y2), (3, 1, dxy), (4, 0, y * z), (4, 1, x * z), (4, 2, x * y),
                            (5, 0, z2), (5, 2, dxz), (6, 1, 3 * y2), (7, 1, dyz), (7, 2, y2),
                            (8, 1, z2), (8, 2, dyz), (9, 2, 3 * z2), (10, 0, 2 * x), (11, 0, y),
                            (11, 1, x), (12, 0, z), (12, 2, x), (13, 1, 2 * y), (14, 1, z),
                            (14, 2, y), (15, 2, 2 * z)):
        out[:, row, col] = value
    out[:, 16:19] = np.eye(3)
    return out


def polymat_from_basis(mats) -> np.ndarray:
    """Stack pencil matrices (k, 3, 3) into polynomial entries (3, 3, k)."""
    return np.moveaxis(np.asarray(mats, dtype=float), 0, -1)


def polymat_mul(a: np.ndarray, b: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Product of two polynomial matrices through a scatter table.

    Supports leading batch dimensions on both operands.
    """
    prod = np.einsum("...ika,...kjb->...ijab", a, b)
    prod = prod.reshape(*prod.shape[:-2], -1)
    return prod @ table


def polymat_transpose(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -3, -2)


def polymat_const_mul(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Right-multiply a polynomial matrix by a constant matrix."""
    return np.einsum("...ika,kj->...ija", a, m)


def poly_trace(a: np.ndarray) -> np.ndarray:
    return np.einsum("...iia->...a", a)


def scalar_polymat_mul(t: np.ndarray, b: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Product of a scalar polynomial with a polynomial matrix."""
    prod = np.einsum("...a,...ijb->...ijab", t, b)
    prod = prod.reshape(*prod.shape[:-2], -1)
    return prod @ table


def polymat_det(f: np.ndarray, algebra: MonomialAlgebra) -> np.ndarray:
    """Determinant of a degree-1 polynomial 3x3 matrix, over the degree-3 basis.

    Supports leading batch dimensions.
    """
    def mul(p, q, table):
        prod = np.einsum("...a,...b->...ab", p, q)
        return prod.reshape(*prod.shape[:-2], -1) @ table

    def mul1(p, q):
        return mul(p, q, algebra.s11)

    def mul2(p, q):
        return mul(p, q, algebra.s21)

    f = np.asarray(f)
    c00 = mul1(f[..., 1, 1, :], f[..., 2, 2, :]) - mul1(f[..., 1, 2, :], f[..., 2, 1, :])
    c01 = mul1(f[..., 1, 0, :], f[..., 2, 2, :]) - mul1(f[..., 1, 2, :], f[..., 2, 0, :])
    c02 = mul1(f[..., 1, 0, :], f[..., 2, 1, :]) - mul1(f[..., 1, 1, :], f[..., 2, 0, :])
    return (mul2(c00, f[..., 0, 0, :]) - mul2(c01, f[..., 0, 1, :])
            + mul2(c02, f[..., 0, 2, :]))


def essential_constraint_system(basis_mats, algebra: MonomialAlgebra) -> np.ndarray:
    """Coefficients of the nine trace-constraint entries plus det over the basis.

    basis_mats lists the pencil matrices of E(x) = sum x_i B_i + B_last, or a
    batch of them with shape (..., k, 3, 3). The trace constraint is
    E E^T E - 0.5 trace(E E^T) E. Returns (..., 10, n3); the determinant
    occupies the last row.
    """
    e = np.moveaxis(np.asarray(basis_mats, dtype=float), -3, -1)
    eet = polymat_mul(e, polymat_transpose(e), algebra.s11)
    cubic = polymat_mul(eet, e, algebra.s21)
    trace_term = scalar_polymat_mul(poly_trace(eet), e, algebra.s21)
    m = cubic - 0.5 * trace_term
    system = np.empty(m.shape[:-3] + (10, algebra.n3))
    system[..., :9, :] = m.reshape(*m.shape[:-3], 9, algebra.n3)
    system[..., 9, :] = polymat_det(e, algebra)
    return system


def semicalibrated_constraint_system(basis_mats) -> tuple[np.ndarray, np.ndarray,
                                                          np.ndarray, np.ndarray]:
    """Trace/det system for F(x, y) = x N1 + y N2 + N3 with gauge G = diag(1, 1, w).

    The constraint F G F^T G F - 0.5 trace(F G F^T G) F = 0 is quadratic in w;
    returns (m0, m1, m2, det) where the trace rows are m0 + w m1 + w^2 m2,
    each of shape (9, 10) over the bivariate degree-3 basis, and det has
    shape (10,).
    """
    algebra = BIVARIATE
    f = polymat_from_basis(basis_mats)
    ft = polymat_transpose(f)
    d0 = np.diag([1.0, 1.0, 0.0])
    d1 = np.diag([0.0, 0.0, 1.0])
    x = polymat_mul(polymat_const_mul(f, d0), ft, algebra.s11)  # F D0 F^T
    y = polymat_mul(polymat_const_mul(f, d1), ft, algebra.s11)  # F D1 F^T

    def tr_with(mat_poly, d):
        return poly_trace(polymat_const_mul(mat_poly, d))

    m0 = (polymat_mul(polymat_const_mul(x, d0), f, algebra.s21)
          - 0.5 * scalar_polymat_mul(tr_with(x, d0), f, algebra.s21))
    m1 = (polymat_mul(polymat_const_mul(x, d1) + polymat_const_mul(y, d0), f, algebra.s21)
          - 0.5 * scalar_polymat_mul(tr_with(x, d1) + tr_with(y, d0), f, algebra.s21))
    m2 = (polymat_mul(polymat_const_mul(y, d1), f, algebra.s21)
          - 0.5 * scalar_polymat_mul(tr_with(y, d1), f, algebra.s21))
    det = polymat_det(f, algebra)
    return (m0.reshape(9, algebra.n3), m1.reshape(9, algebra.n3),
            m2.reshape(9, algebra.n3), det)
