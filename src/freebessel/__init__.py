"""Free Bessel laws: exact moments, densities, combinatorics, and matrix models.

Each public name loads the module that defines it on first access (PEP 562), so
``import freebessel`` compiles no layer module.
"""

__version__ = "0.1.0"

_EXPORTS = {  # public name -> the module that defines it
    "ColoredWord": "partitions",
    "DensityGrid": "freelaws",
    "ProbeReport": "freelaws",
    "SetPartition": "partitions",
    "SupportInfo": "freelaws",
    "density": "freelaws",
    "density_grid": "freelaws",
    "enumerate_balanced": "partitions",
    "enumerate_nc_s": "partitions",
    "existence_probe": "freelaws",
    "fuss_catalan": "partitions",
    "fuss_narayana_poly": "partitions",
    "in_defined_region": "freelaws",
    "is_noncrossing": "partitions",
    "join": "partitions",
    "moment": "freelaws",
    "moments_via_series": "freelaws",
    "star_moment": "partitions",
    "support": "freelaws",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
