"""Special functions in numpy and `math`, the one source of them in fracpm
(scipy.special and mpmath are test oracles only). gamma and lgamma are `math`'s.

* zeta(s), real s > 0, s != 1: Borwein's algorithm on eta(s) = (1 - 2^(1-s))
  zeta(s); 40 terms truncate below 5.83^-40, exact integer weights, fsum.
* j0(x): below 20 the midpoint rule on (2/pi) int_0^(pi/2) cos(x sin t) dt, a
  periodic integrand, so 16 nodes err by about J_64(20) ~ 1e-24; from 20 up
  26 terms of Hankel's expansion (the last 1.7e-17 at x = 20), x - pi/4 reduced
  in two parts (exact below x = 2^19 pi/2), keeping the ulps of x that
  cos(x - pi/4) loses.
* GammaQ(a)(x), 0 < a <= 1, x >= 0: degree-8 Taylor polynomials on cells of
  width 1/32, built once per a: of the entire x^-a P(a, x) below x = 1, of Q
  above, its cell-centre values Kahan sums of the cell integrals of Q' down
  from x = 48 (Q < 1e-21; exactly zero beyond, `Q_ZERO_FROM`). A Horner loop
  over gathered coefficient rows, a few ulps.
"""

from __future__ import annotations

import itertools
import math
from math import gamma, lgamma

import numpy as np


def beta(a: float, b: float) -> float:
    return math.exp(lgamma(a) + lgamma(b) - lgamma(a + b))


def _horner(coefs, t) -> np.ndarray:
    """sum_k coefs[k] t^k; each coefs[k] is a scalar or an array like t."""
    v = np.zeros(np.shape(t)) + coefs[-1]
    for c in coefs[-2::-1]:
        v *= t
        v += c
    return v


# Borwein's weights (-1)^k (d_n - d_k) / d_n for n = 40, each d_k an exact integer
_D = list(itertools.accumulate(
    40 * math.factorial(39 + i) * 4**i // (math.factorial(40 - i) * math.factorial(2 * i))
    for i in range(41)
))
_ETA_WEIGHTS = np.array([(-1) ** k * (_D[40] - _D[k]) / _D[40] for k in range(40)])


def zeta(s) -> np.ndarray:
    """Riemann zeta at real s > 0, s != 1, elementwise."""
    s = np.asarray(s, dtype=float)
    k = np.arange(1.0, _ETA_WEIGHTS.size + 1)
    eta = np.reshape([math.fsum(_ETA_WEIGHTS * k**-v) for v in s.ravel()], s.shape)
    return eta / -np.expm1((1.0 - s) * math.log(2.0))


_J0_SINES = np.sin(np.pi * (np.arange(16) + 0.5) / 32.0)  # midpoints of [0, pi/2]
# a_m = prod_(i <= m) (2i - 1)^2 / (8 i), signed as the m-th coefficient of
# P = a_0 - a_2 / x^2 + ... (even m) or Q = -a_1 / x + a_3 / x^3 - ... (odd m)
_HANKEL = np.cumprod([1.0] + [(2 * m - 1) ** 2 / (8.0 * m) for m in range(1, 26)])
_HANKEL *= np.resize([1.0, -1.0, -1.0, 1.0], _HANKEL.size)
_PIO4_HI = 7.85398163367062807085e-01  # 33 bits: m * _PIO4_HI is exact for m < 2^20
_PIO4_LO = 3.03855025325309612466e-11  # pi/4 - _PIO4_HI


def _j0_hankel(x: np.ndarray) -> np.ndarray:
    """sqrt(2 / (pi x)) (P cos(x - pi/4) - Q sin(x - pi/4)) on a_0 ... a_25."""
    z = 1.0 / x
    P = _horner(_HANKEL[0::2], z * z)
    Q = z * _horner(_HANKEL[1::2], z * z)
    q = np.floor(x * (2.0 / np.pi))  # x - pi/4 = r + q pi/2, |r| <= pi/4
    m = 2.0 * q + 1.0
    r = (x - m * _PIO4_HI) - m * _PIO4_LO
    c, s = np.cos(r), np.sin(r)
    q = q.astype(np.int64)
    val = np.where(q & 1, P * s + Q * c, P * c - Q * s) * np.sqrt(z * (2.0 / np.pi))
    return np.where((q + 1) & 2, -val, val)


def j0(x) -> np.ndarray:
    """Bessel J0, elementwise."""
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty(x.shape)
    small = x < 20.0
    out[small] = np.cos(np.multiply.outer(x[small], _J0_SINES)).mean(axis=-1)
    out[~small] = _j0_hankel(x[~small])
    return out


_Q_CELL, _Q_SPLIT, _Q_DEGREE = 1.0 / 32.0, 1.0, 8
Q_ZERO_FROM = 48.0  # GammaQ returns exactly 0 from here up (Q < 1e-21)


class GammaQ:
    """Q(a, x) = Gamma(a, x) / Gamma(a) for one 0 < a <= 1, at any x >= 0."""

    def __init__(self, a: float):
        self.a = a = float(a)
        h, k, top = _Q_CELL, np.arange(_Q_DEGREE + 1.0), Q_ZERO_FROM
        cells, split = round(top / h), round(_Q_SPLIT / h)
        centre = (np.arange(cells) + 0.5) * h
        fact = np.cumprod(np.maximum(k, 1.0))
        coef = np.zeros((k.size, cells + 1))  # the last cell is Q = 0, past top
        # Gamma(a) x^-a P(a, x) = int_0^1 t^(a-1) e^(-x t) dt, and its k-th
        # derivative is (-1)^k times that moment of t^(a+k-1), which is
        # e^-x / b (1 + x / (b+1) (1 + x / (b+2) (...))), b = a + k, summed inside out
        b, x = a + k[:, None], centre[:split]
        moment = np.ones((k.size, split))
        for i in range(24, 0, -1):
            moment = 1.0 + moment * x / (b + i)
        coef[:, :split] = ((-h) ** k / fact / gamma(a))[:, None] * np.exp(-x) * moment / b
        # Q' = -g, g = x^(a-1) e^-x / Gamma(a): about c, the Taylor series of
        # (1 + s/c)^(a-1) times that of e^-s
        c = centre[split:]
        steps = (a - k[1:-1, None]) / (k[1:-1, None] * c)  # binom(a-1, i) / c^i
        binom = np.cumprod(np.vstack([np.ones(c.size), steps]), axis=0)
        expo = (-1.0) ** k[:-1] / fact[:-1]
        g = np.array([binom[: i + 1].T @ expo[i::-1] for i in range(_Q_DEGREE)])
        g *= np.exp(-c) * c ** (a - 1.0) / gamma(a)
        half = g * (h / 2.0) ** k[1:, None] / k[1:, None]  # int_c^(c+h/2), per term
        right, whole = half.sum(axis=0), 2.0 * half[0::2].sum(axis=0)
        # Q(c) = Q(top), asymptotically, plus the cell integrals above c
        tail = np.cumprod(np.append(1.0, (a - np.arange(1.0, 20.0)) / top))
        total, carry = math.exp(-top) * top ** (a - 1.0) / gamma(a) * tail.sum(), 0.0
        for i in range(c.size - 1, -1, -1):
            coef[0, split + i] = total + right[i]
            y = whole[i] - carry
            carry = ((total + y) - total) - y
            total += y
        coef[1:, split:cells] = -g / k[1:, None] * h ** k[1:, None]
        self._coef, self._split, self._cells = coef, split, cells

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        # clamped before the cast, which overflows from about 2.9e17 up
        y = np.minimum(x * (1.0 / _Q_CELL), self._cells)
        cell = y.astype(np.intp)
        t = y - cell - 0.5
        # _horner's arithmetic, gathering one coefficient row at a time
        v = np.zeros(t.shape)
        v += self._coef[-1].take(cell)
        for row in self._coef[-2::-1]:
            v *= t
            v += row.take(cell)
        low = cell < self._split
        if low.any():
            v[low] = 1.0 - x[low] ** self.a * v[low]
        return v
