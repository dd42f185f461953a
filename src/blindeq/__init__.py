"""Simulation laboratory for blind adaptive equalization of coherent
optical links: variational equalizers, CMA baselines, channel models, and a
Monte-Carlo evaluation pipeline."""

__version__ = "0.1.0"

# not cli: importing it here would make `python -m blindeq.cli` warn that the
# module was already imported when it starts as __main__
from . import autodiff, channel, config, equalize, evaluate, modem, sigproc  # noqa: F401
from .errors import ConfigError  # noqa: F401
