"""Macroscopic Hong-Ou-Mandel interference of bright twin beams.

Simulation and analysis of the delay dependence of the normalized
difference-signal variance and the intensity cross-correlation for
high-gain parametric down-conversion, with an exact truncated-Fock
oracle and a Monte-Carlo model of the pulsed detection.
"""

__version__ = "0.1.0"
