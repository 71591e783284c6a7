#!/usr/bin/env python3
"""The analytic machinery behind deviation lower bounds.

Four independent pieces, each checked against a second route:

1. H(s) = s Gamma(s) (zeta'/zeta(s) + zeta(s)), the Mellin transform of
   the deviation, evaluated in closed form and by direct quadrature of
   Delta.
2. The Gaussian line integral (1/2pi i) int exp(k s^2 + w s) ds =
   exp(-w^2/4k) / (2 sqrt(pi k)).
3. The smoothing integral U(mu) from the table side (quadrature) and
   from the zero side (the zero sum over explicit conjugates; H(s) is
   regular at s = 1, so there is no pole term).
4. The Turan power-sum lower bound max |sum e^{alpha_j t}| >=
   (b/(8e(a+b)))^n, with the commonly misprinted denominator corrected.
"""

import math

import numpy as np

from smoothed_pnt.pintz import (
    PintzParams,
    U_integral,
    U_residue,
    gaussian_line_check,
    mellin_H_closed,
    mellin_H_quadrature,
    turan_bound,
)
from smoothed_pnt.sieve import build_lambda
from smoothed_pnt.zeros import builtin_zeros

print(__doc__)

table = build_lambda(2_000_000)
zs = builtin_zeros()

print("1. Mellin transform, closed form vs quadrature of Delta:")
for s in (2.0, complex(2.0, 1.0), complex(2.0, 5.0)):
    closed = mellin_H_closed(s)
    quad = mellin_H_quadrature(table, s)
    print(f"  s = {s}: closed {closed:.8f}  quad {quad.value:.8f}  |diff| {abs(closed - quad.value):.1e}")
print()

print("2. Gaussian line integral identity:")
for kk, w in ((1.0, 0.0), (1.0, 2.0), (0.3, -7.0), (5.0, 12.0)):
    quad, closed = gaussian_line_check(kk, w)
    print(f"  k={kk:<4} w={w:<5}: quad {quad.real:.12e}  closed {closed.real:.12e}")
print()

print("3. dual representations of the smoothing integral U(mu):")
rho1 = complex(0.5, zs.gammas[0])
p = PintzParams(mu=math.log(60.0), k=0.6, rho0=rho1)
ui = U_integral(table, p, tol=0.1)
ur = U_residue(zs, p)
print(f"  table side : {ui.value:.6e}  (reported error {ui.error:.1e})")
print(f"  zero side  : {ur.value:.6e}  (remainder envelope {ur.error:.1e})")
print(f"  rel diff   : {abs(ui.value - ur.value) / abs(ur.value):.4f}")
print()

print("4. Turan power-sum bound on seeded random exponent sets:")
rng = np.random.default_rng(42)
worst = math.inf
for _ in range(200):
    n = int(rng.integers(1, 9))
    alphas = np.zeros(n, dtype=complex)
    alphas[0] = 1j * rng.uniform(-10, 10)
    if n > 1:
        alphas[1:] = rng.uniform(-1, 0, n - 1) + 1j * rng.uniform(-10, 10, n - 1)
    a, b = rng.uniform(1, 10), rng.uniform(1, 10)
    gmax, bound = turan_bound(alphas, a, b)
    worst = min(worst, gmax / bound)
print(f"  200 instances: min(grid_max / bound) = {worst:.3f}  (contract: >= 0.99)")
