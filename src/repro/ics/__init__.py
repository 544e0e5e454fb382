"""Initial conditions for the scenario library.

The paper's two test simulations (Table 5) — the rotating square patch
(Colagrossi 2005, extruded to 3-D with periodic Z as in Section 5.1) and
the Evrard collapse (Evrard 1988, Eq. 2) — plus the six validated
workloads of the scenario library (see :mod:`repro.scenarios`): the
Sedov–Taylor blast, the Sod shock tube, the planar Noh implosion, the
Kelvin–Helmholtz shear layer, the Gresho–Chan vortex and the wind–cloud
(blob) test, and the lattice helpers they all share.
"""

from .evrard import EvrardConfig, evrard_density_profile, make_evrard
from .gresho import (
    GreshoConfig,
    gresho_pressure_profile,
    gresho_velocity_profile,
    make_gresho,
)
from .kelvin_helmholtz import KelvinHelmholtzConfig, make_kelvin_helmholtz
from .lattice import cubic_lattice, lattice_sphere, side_for_count
from .noh import NohConfig, make_noh
from .sedov import SedovConfig, make_sedov
from .sod import SodConfig, make_sod
from .square_patch import (
    SquarePatchConfig,
    make_square_patch,
    patch_pressure_field,
)
from .wind_cloud import WindCloudConfig, make_wind_cloud

__all__ = [
    "EvrardConfig",
    "evrard_density_profile",
    "make_evrard",
    "SquarePatchConfig",
    "make_square_patch",
    "patch_pressure_field",
    "SedovConfig",
    "make_sedov",
    "SodConfig",
    "make_sod",
    "NohConfig",
    "make_noh",
    "GreshoConfig",
    "gresho_velocity_profile",
    "gresho_pressure_profile",
    "make_gresho",
    "KelvinHelmholtzConfig",
    "make_kelvin_helmholtz",
    "WindCloudConfig",
    "make_wind_cloud",
    "cubic_lattice",
    "lattice_sphere",
    "side_for_count",
]
