"""Numerical laboratory for waves on a warped-product surface with a
Dirichlet boundary.

The surface is a two-ended line-times-sphere geometry whose sphere radius
is smallest at the neck x = 0.  Waves reflect off a wall placed at x = x0.
With the wall on the far side of the neck (x0 > 0) local energy disperses
losslessly; with the wall past the neck (x0 < 0) a potential well forms
between wall and neck, and nearly-stationary mode packets stay confined
for times that grow exponentially in their angular frequency.

Subpackage map:

- ``geometry``:   the warp profile, its derivatives, per-mode potentials
- ``spectral``:   grids, tridiagonal operators, eigensolver, quadrature, shells
- ``quasimode``:  confined near-eigenfunctions and decay-rate fits
- ``evolve``:     exact spectral time evolution, the energy-density kernel,
                  confinement runs and the local-energy audit
- ``multiplier``: integration-by-parts identity, coefficient and Hardy audits
- ``cli``:        experiment driver (``warptrap`` entry point)

Each name is imported from the module that defines it; this package root
re-exports nothing.
"""

__version__ = "0.1.0"
