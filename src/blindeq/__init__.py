"""Simulation laboratory for blind adaptive equalization of coherent
optical links: variational equalizers, CMA baselines, channel models, and a
Monte-Carlo evaluation pipeline."""

__version__ = "0.1.0"

from . import autodiff, channel, cli, config, equalize, evaluate, modem, sigproc  # noqa: F401
from .errors import ConfigError, DivergenceError  # noqa: F401
