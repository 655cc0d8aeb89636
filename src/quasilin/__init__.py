"""Toolkit for quasilinear open-quantum-system models.

Structure-constant algebras, quasilinear QSDE drift/dispersion data, moment
flows, second-moment spectra, isolated-mode eigenstructure, decoherence
times, weak-coupling asymptotics, directly coupled composites, and an exact
finite-dimensional Lindblad oracle used to cross-check all of it.
"""

from . import composite, decoherence, model, modes, oracle, qsde, second_moment, weak
from .model import validate

__all__ = ["composite", "decoherence", "model", "modes", "oracle", "qsde", "second_moment", "validate", "weak"]
