"""Initial conditions for the scenario library.

The paper's two test simulations (Table 5) — the rotating square patch
(Colagrossi 2005, extruded to 3-D with periodic Z as in Section 5.1) and
the Evrard collapse (Evrard 1988, Eq. 2) — plus the six validated
workloads of the scenario library (see :mod:`repro.scenarios`): the
Sedov–Taylor blast, the Sod shock tube, the planar Noh implosion, the
Kelvin–Helmholtz shear layer, the Gresho–Chan vortex and the wind–cloud
(blob) test, and the lattice helpers they all share.
"""

from .._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(__name__, {
    ".evrard": ("EvrardConfig", "evrard_density_profile", "make_evrard"),
    ".gresho": (
        "GreshoConfig", "gresho_pressure_profile", "gresho_velocity_profile",
        "make_gresho",
    ),
    ".kelvin_helmholtz": ("KelvinHelmholtzConfig", "make_kelvin_helmholtz"),
    ".lattice": ("cubic_lattice", "lattice_sphere", "side_for_count"),
    ".noh": ("NohConfig", "make_noh"),
    ".sedov": ("SedovConfig", "make_sedov"),
    ".sod": ("SodConfig", "make_sod"),
    ".square_patch": (
        "SquarePatchConfig", "make_square_patch", "patch_pressure_field",
    ),
    ".wind_cloud": ("WindCloudConfig", "make_wind_cloud"),
})
