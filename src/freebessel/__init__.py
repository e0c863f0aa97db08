"""Free Bessel laws: exact moments, densities, combinatorics, and matrix models."""

__version__ = "0.1.0"

from .freelaws import (
    DensityGrid,
    ProbeReport,
    SupportInfo,
    density,
    density_grid,
    existence_probe,
    in_defined_region,
    moment,
    moments_via_series,
    support,
)
from .partitions import (
    ColoredWord,
    SetPartition,
    enumerate_balanced,
    enumerate_nc_s,
    fuss_catalan,
    fuss_narayana_poly,
    is_noncrossing,
    join,
    star_moment,
)

__all__ = [
    "ColoredWord",
    "DensityGrid",
    "ProbeReport",
    "SetPartition",
    "SupportInfo",
    "density",
    "density_grid",
    "enumerate_balanced",
    "enumerate_nc_s",
    "existence_probe",
    "fuss_catalan",
    "fuss_narayana_poly",
    "in_defined_region",
    "is_noncrossing",
    "join",
    "moment",
    "moments_via_series",
    "star_moment",
    "support",
    "__version__",
]
