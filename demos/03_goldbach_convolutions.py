#!/usr/bin/env python3
"""Weighted Goldbach convolutions and coefficient extraction on a circle.

psi_k(n) sums Lambda(m_1)...Lambda(m_k) over ordered k-part additive
compositions of n; its exponential smoothing F_k(x) factors exactly as
Psi(x)^k.  The second half demonstrates the circle-quadrature identity
recovering partial sums of the centered convolution psi2_0, and why the
generating factor must be squared: unsquared, the same integral returns
sum (Lambda(n) - 1) instead.
"""

import math

import numpy as np

from smoothed_pnt.goldbach import (
    contour_extract,
    convolve_psik,
    psi2_centered,
    smooth_Fk,
)
from smoothed_pnt.sieve import build_lambda
from smoothed_pnt.smooth import delta

print(__doc__)

table = build_lambda(10_000)

conv2 = convolve_psik(table, 2, 200)
print("small values of psi_2: ordered two-part representations")
for n in (4, 5, 6, 10):
    print(f"  psi_2({n}) = {conv2.values[n]:.6f}")
print(f"  check: psi_2(4) = (log 2)^2 = {math.log(2)**2:.6f}")
print()

print("F_k(x) = Psi(x)^k with matched truncation:")
x = 50.0
psi = delta(table, x, tol=1e-12).psi
for k in (1, 2, 3, 4):
    conv = convolve_psik(table, k, 4000, method="direct")
    fk = smooth_Fk(conv, x, tol=1e-6 * psi**k)
    print(f"  k={k}: F_k({x:g}) = {fk:.6e}   Psi^k = {psi**k:.6e}   rel {abs(fk/psi**k - 1):.1e}")
print()

N = 100
r = math.exp(-1.0 / N)
direct = float(np.sum(psi2_centered(table, N)[: N + 1]))
squared, imag = contour_extract(table, N, r=r, squared=True)
unsq, _ = contour_extract(table, N, r=r, squared=False)
lam_sum = float(np.sum(table.values[1 : N + 1])) - N
print(f"circle quadrature at N={N}, r=e^(-1/{N}):")
print(f"  squared integrand : {squared:.9f}")
print(f"  direct partial sum: {direct:.9f}   (|imag| = {imag:.1e})")
print(f"  unsquared reading : {unsq:.9f}")
print(f"  sum(Lambda(n) - 1): {lam_sum:.9f}   <- what the unsquared form extracts")
