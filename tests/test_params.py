"""Refusals of the parameter records and the spectral grid."""

import math
import re

import pytest

from macrohom.errors import ValidationError
from macrohom.params import CrystalParams, PumpParams, SpectralGrid


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SpectralGrid([], []), "grid must be a nonempty 1-d sequence"),
        (lambda: SpectralGrid([[0.0, 1.0]], [[1.0, 1.0]]), "grid must be a nonempty 1-d sequence"),
        (lambda: SpectralGrid([0.0, 1.0], [1.0]), "omega and weights must have matching shapes"),
        (
            lambda: SpectralGrid([0.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
            "omega samples must be strictly increasing",
        ),
        (lambda: SpectralGrid([-0.5, 1.0], [1.0, 1.0]), "omega samples must be >= 0"),
        (lambda: SpectralGrid([0.0, 1.0], [1.0, 0.0]), "quadrature weights must be > 0"),
        (lambda: SpectralGrid.gauss_legendre(0.0, 16), "omega_max must be > 0"),
        (lambda: SpectralGrid.gauss_legendre(math.nan, 16), "omega_max must be > 0"),
        (lambda: SpectralGrid.gauss_legendre(10.0, 0), "node count must be >= 1"),
        (lambda: CrystalParams(length_mm=0.0), "crystal length must be > 0, got 0.0"),
        (lambda: CrystalParams(length_mm=-2.0), "crystal length must be > 0, got -2.0"),
        (
            lambda: PumpParams(lambda_deg=709.3, lambda_pump=400.0),
            "pump wavelength must equal half the degenerate wavelength within 0.1%: "
            "got 400.0 vs 354.65",
        ),
    ],
)
def test_refusals(build, message):
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        build()
