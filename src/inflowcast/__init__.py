"""Probabilistic sub-seasonal reservoir inflow forecasting and decision-value toolkit."""

__version__ = "0.1.0"

import importlib

from .data import CANONICAL_HORIZONS, EnsemblePrecipForecast, HorizonSpec
from .errors import InflowcastError, InputError, NumericalError
from .series import DailySeries, InflowSeries

# These modules load scipy.special, so their names are imported on first use
# (PEP 562): a command that computes no special function starts without it.
_LAZY = {
    "EmosFeatures": "emos",
    "EmosModel": "emos",
    "compute_features": "emos",
    "fit_emos": "emos",
    "predict_distribution": "emos",
    "classify_skill": "verification",
    "fair_crps": "verification",
    "fcrpss": "verification",
    "ZagaDistribution": "zaga",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = [
    "CANONICAL_HORIZONS",
    "DailySeries",
    "EmosFeatures",
    "EmosModel",
    "EnsemblePrecipForecast",
    "HorizonSpec",
    "InflowSeries",
    "InflowcastError",
    "InputError",
    "NumericalError",
    "ZagaDistribution",
    "classify_skill",
    "compute_features",
    "fair_crps",
    "fcrpss",
    "fit_emos",
    "predict_distribution",
    "__version__",
]
