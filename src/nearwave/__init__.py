"""Evanescent near-field toolkit.

Mode spectra behind an inhomogeneous screen, near-field superpositions,
probe-particle absorption, relativistic evanescence-transfer kinematics,
and finite-mass screen recoil with complex (Gamow) energies and lifetimes.
"""

__version__ = "0.1.0"
