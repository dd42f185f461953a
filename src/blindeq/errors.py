"""The exception type shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad shapes, out-of-range parameters, unknown keys."""
