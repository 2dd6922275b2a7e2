"""Radiative cooling of a spin ensemble through a microwave resonator.

Simulator and estimation toolkit: donor spin spectra vs magnetic field,
cavity-enhanced relaxation and effective spin temperature, thermal
polarization, wire-field coupling distributions, mean-field pulsed
dynamics, and the fitting/sensitivity estimators used to analyse them.
"""

__version__ = "0.1.0"
