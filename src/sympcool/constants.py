"""Physical constants and unit conversions used throughout the package.

Values are frozen CODATA-2018 literals rather than imports from
scipy.constants, so that outputs stay bit-reproducible across scipy
upgrades.  All internal computation is strict SI; converters below are
the only place unit-suffixed config values are touched.
"""

from __future__ import annotations

K_B = 1.380649e-23          # J/K, Boltzmann constant (exact)
HBAR = 1.054571817e-34      # J s, reduced Planck constant
H_PLANCK = 6.62607015e-34   # J s (exact)
MU_B = 9.2740100783e-24     # J/T, Bohr magneton
AMU = 1.66053906660e-27     # kg, atomic mass constant
G_STANDARD = 9.80665        # m/s^2, standard gravity (default, overridable)

MASS_RB87 = 86.909180531 * AMU   # kg
MASS_LI6 = 6.0151228874 * AMU    # kg

# Bose condensation threshold for the peak phase-space density,
# zeta(3/2); rounded to 2.612 in most of the literature.
BEC_THRESHOLD = 2.612

# Calibration prefactor mapping the classical peak phase-space density
# onto the quantum-statistics value near degeneracy.  Numerically close
# to zeta(3/2)/zeta(3) = 2.173; kept as an explicit knob.
PSD_PREFACTOR = 2.17

# unit conversions (config -> SI)
GAUSS = 1e-4                # T
KILOGAUSS_PER_CM = 10.0     # T/m
GAUSS_PER_CM2 = 1.0         # T/m^2  (1 G / cm^2 = 1e-4 T / 1e-4 m^2)
MICROKELVIN = 1e-6          # K
NANOKELVIN = 1e-9           # K
MICROMETER = 1e-6           # m

_TABLE = {
    "k_B": {"value": K_B, "unit": "J/K", "source": "CODATA-2018 (exact)"},
    "hbar": {"value": HBAR, "unit": "J s", "source": "CODATA-2018"},
    "h": {"value": H_PLANCK, "unit": "J s", "source": "CODATA-2018 (exact)"},
    "mu_B": {"value": MU_B, "unit": "J/T", "source": "CODATA-2018"},
    "amu": {"value": AMU, "unit": "kg", "source": "CODATA-2018"},
    "g_standard": {"value": G_STANDARD, "unit": "m/s^2", "source": "ISO 80000-3"},
    "mass_rb87": {"value": MASS_RB87, "unit": "kg", "source": "86.909180531 amu"},
    "mass_li6": {"value": MASS_LI6, "unit": "kg", "source": "6.0151228874 amu"},
    "bec_threshold": {"value": BEC_THRESHOLD, "unit": "1", "source": "zeta(3/2), rounded"},
    "psd_prefactor": {"value": PSD_PREFACTOR, "unit": "1", "source": "calibration, ~zeta(3/2)/zeta(3)"},
}


def constants_table() -> dict:
    """Return the frozen constants table (value/unit/source per entry)."""
    return {k: dict(v) for k, v in _TABLE.items()}

