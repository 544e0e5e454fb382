"""Transcendental-polynomial constants for the compiled backend.

The compiled pair loops cannot call ``numpy``'s vectorized ``sin``/``cos``
(the sinc-family kernels are the default in every preset), and scalar
libm ``sin`` costs more than the whole rest of the fused pair visit.
The C unit therefore evaluates degree-10 Taylor
polynomials in ``z**2`` after an exact split-at-``pi/2`` range reduction:

* the argument ``x = pi * (q / 2)`` lives in ``[0, pi)`` by construction
  (``q = r/h`` is clipped to ``[0, 2)`` before evaluation);
* ``x <= pi/2`` evaluates ``sin``/``cos`` directly;
* otherwise the reflection ``z = (pi_hi - x) + pi_lo`` uses a two-part
  representation of pi so ``sin(x) = sin(z)`` keeps full *relative*
  accuracy as ``x -> pi`` (where ``sin`` underflows toward zero and a
  naive ``pi - x`` would cancel catastrophically).

Truncation error of the series on ``[0, pi/2]`` is ``(pi/2)**23 / 23!``
(~1.2e-18) for ``sin`` and ``(pi/2)**22 / 22!`` (~1.9e-17) for ``cos`` —
one to two ulp of the exact value, well inside the documented backend
tolerance (see DESIGN.md, "Tolerance policy").

These constants are interpolated into the C source by
:mod:`repro.backend.csrc`.
"""

from __future__ import annotations

import math

__all__ = [
    "PI_HI",
    "PI_LO",
    "SIN_COEFFS",
    "COS_COEFFS",
]

#: Two-part representation of pi: ``PI_HI`` is the double nearest pi and
#: ``PI_LO`` the leading correction (``pi - PI_HI`` to double precision,
#: numerically ``sin(PI_HI)`` to first order).
PI_HI = math.pi
PI_LO = 1.2246467991473532e-16

#: Taylor coefficients of ``sin(z)/z - 1`` in powers of ``z**2``:
#: ``sin(z) = z + z*z2*(S1 + z2*(S2 + ...))`` with ``Sk = (-1)^k/(2k+1)!``.
SIN_COEFFS = (
    -0.16666666666666666,
    0.008333333333333333,
    -0.0001984126984126984,
    2.7557319223985893e-06,
    -2.505210838544172e-08,
    1.6059043836821613e-10,
    -7.647163731819816e-13,
    2.8114572543455206e-15,
    -8.22063524662433e-18,
    1.9572941063391263e-20,
)

#: Taylor coefficients of ``cos(z) - 1`` in powers of ``z**2``:
#: ``cos(z) = 1 + z2*(C1 + z2*(C2 + ...))`` with ``Ck = (-1)^k/(2k)!``.
COS_COEFFS = (
    -0.5,
    0.041666666666666664,
    -0.001388888888888889,
    2.48015873015873e-05,
    -2.755731922398589e-07,
    2.08767569878681e-09,
    -1.1470745597729725e-11,
    4.779477332387385e-14,
    -1.5619206968586225e-16,
    4.110317623312165e-19,
)
