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
        # d/dv of a degree-3 monomial is its exponent of v times the basis
        # entry one lower in v; a zero exponent takes the constant 1
        index = {e: i for i, e in enumerate(self.exps3)}
        constant = index[(0,) * len(self.exps3[0])]
        self.d_coeff = np.array(self.exps3, dtype=float)
        self.d_index = np.array([
            [index[e[:v] + (e[v] - 1,) + e[v + 1:]] if e[v] else constant for v in range(len(e))]
            for e in self.exps3])

    def gradient(self, monomials: np.ndarray) -> np.ndarray:
        """Partial derivatives (m, n3, nvars) of the degree-3 basis from its values (m, n3)."""
        return monomials[:, self.d_index] * self.d_coeff


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


# Batched evaluators: each basis is a (monomials, gradient) pair. monomials
# takes states (m, nvars) and returns the basis values (m, k); gradient
# takes the states and those values and returns their partial derivatives
# (m, k, nvars), rows ordered as the basis.

# the bivariate basis [x3 y3 x2y xy2 x2 y2 xy x y 1] as (t_a t_b) t_c over
# t = (x, y, 1); xy2 is (y y) x, the same rounded product as x (y y)
_BIVARIATE_FACTORS = np.array([[0, 1, 0, 1, 0, 1, 0, 0, 1, 2],
                               [0, 1, 0, 1, 0, 1, 1, 2, 2, 2],
                               [0, 1, 1, 0, 2, 2, 2, 2, 2, 2]])


def bivariate_monomials_batch(states: np.ndarray) -> np.ndarray:
    """The bivariate degree-3 basis [x3 y3 x2y xy2 x2 y2 xy x y 1]."""
    t = np.take(np.concatenate([states, np.ones((states.shape[0], 1))], axis=1),
                _BIVARIATE_FACTORS, axis=1)
    return t[:, 0] * t[:, 1] * t[:, 2]


# TRIVARIATE.exps3 as flat indices into [s_i s_j s_k (27), s_i s_j (9), s_i (3), 1],
# each cubic multiplied as (s_i s_j) s_k with a squared variable first
_TRIVARIATE_PICKS = np.array([
    0, 1, 2, 12, 5, 24, 13, 14, 25, 26,  # x3 x2y x2z xy2 xyz xz2 y3 y2z yz2 z3
    27, 28, 29, 31, 34, 35,  # x2 xy xz y2 zy z2
    36, 37, 38, 39])


def trivariate_monomials_batch(states: np.ndarray) -> np.ndarray:
    """The trivariate degree-3 basis, ordered as TRIVARIATE.exps3."""
    m = states.shape[0]
    squares = states[:, :, None] * states[:, None]
    cubes = squares[:, :, :, None] * states[:, None, None]
    table = np.concatenate([cubes.reshape(m, 27), squares.reshape(m, 9), states,
                            np.ones((m, 1))], axis=1)
    return table[:, _TRIVARIATE_PICKS]


def semicalibrated_monomials_batch(states: np.ndarray) -> np.ndarray:
    """[mono, w mono, w^2 mono] at states (x, y, w), mono the bivariate basis at (x, y).

    A system [a0 | a1 | a2] over this basis evaluates (a0 + w a1 + w^2 a2) mono.
    """
    mono = bivariate_monomials_batch(states[:, :2])
    w = states[:, 2:]
    return np.concatenate([mono, w * mono, (w * w) * mono], axis=1)


def semicalibrated_gradient_batch(states: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Partial derivatives (m, 30, 3) of the semicalibrated basis in (x, y, w)."""
    mono = values[:, :10]
    grad = BIVARIATE.gradient(mono)
    w = states[:, 2:]
    out = np.zeros((states.shape[0], 30, 3))
    out[:, :10, :2] = grad
    out[:, 10:20, :2] = w[:, :, None] * grad
    out[:, 20:, :2] = (w * w)[:, :, None] * grad
    out[:, 10:20, 2] = mono
    out[:, 20:, 2] = (2.0 * w) * mono
    return out


BIVARIATE_BASIS = (bivariate_monomials_batch, lambda states, values: BIVARIATE.gradient(values))
TRIVARIATE_BASIS = (trivariate_monomials_batch,
                    lambda states, values: TRIVARIATE.gradient(values))
SEMICALIBRATED_BASIS = (semicalibrated_monomials_batch, semicalibrated_gradient_batch)


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

    basis_mats holds N1, N2, N3, or a batch of them with shape (..., 3, 3, 3).
    The constraint F G F^T G F - 0.5 trace(F G F^T G) F = 0 is quadratic in w;
    returns (m0, m1, m2, det) where the trace rows are m0 + w m1 + w^2 m2,
    each of shape (..., 9, 10) over the bivariate degree-3 basis, and det has
    shape (..., 10).
    """
    algebra = BIVARIATE
    f = np.moveaxis(np.asarray(basis_mats, dtype=float), -3, -1)
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
    shape = f.shape[:-3] + (9, algebra.n3)
    return m0.reshape(shape), m1.reshape(shape), m2.reshape(shape), polymat_det(f, algebra)
