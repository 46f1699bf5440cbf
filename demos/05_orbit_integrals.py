"""Integrating over R^n in flow coordinates.

A cross-section turns the plane into (section point) x (flow time), and
the change of variables carries an explicit Jacobian weight per case:
|alpha| delta^t for a scaling witness and s beta delta^t for a rotating
one (delta = det exp(B)).  The shear and the rotating shear substitute
u = t s and u = t p for the flow time, which leaves the weights
delta^(u/s) and beta delta^(u/p), both constant on the pure block.  The
weights are validated against central finite differences of the same
chart, then used to reproduce Gaussian integrals: the chart's ranges map
the unit cube onto the decay ball's parameters, and
scipy.integrate.cubature integrates over the cube, calling the Gaussian
row by row.
"""

import math

import numpy as np

from xsect import build_continuous_section, jacobian_check, orbit_integral


def gaussian(x):
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    return math.exp(-float(x @ x) / 2.0) / (2 * math.pi) ** (n / 2)


omega = np.array([[0.0, math.pi], [-math.pi, 0.0]])
generators = {
    "scaling + chain": np.array([[math.log(2.0), 1.0], [0.0, math.log(2.0)]]),
    "rotating growth": np.array([[1.0, 2 * math.pi], [-2 * math.pi, 1.0]]),
    "pure shear": np.array([[0.0, 1.0], [0.0, 0.0]]),
    "rotating shear (4d)": np.block([[omega, np.eye(2)], [np.zeros((2, 2)), omega]]),
}

for name, b in generators.items():
    section = build_continuous_section(b)
    dev = jacobian_check(section, points=50, seed=0)
    if b.shape[0] <= 2:
        value = orbit_integral(gaussian, section, decay_radius=8.0)
    else:
        value = orbit_integral(gaussian, section, decay_radius=7.0, epsabs=1e-4, epsrel=1e-4)
    print(f"{name:22s} jacobian dev {dev:.1e}   gaussian integral {value:.6f} (exact 1)")
