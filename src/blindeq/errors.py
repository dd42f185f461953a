"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad shapes, out-of-range parameters, unknown keys."""


class DivergenceError(RuntimeError):
    """An adaptive equalizer produced a non-finite loss."""

    def __init__(self, batch_index: int):
        self.batch_index = batch_index
        super().__init__(f"non-finite loss at batch {batch_index}")
