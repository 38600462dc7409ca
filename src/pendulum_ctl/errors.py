"""Exception types shared across the toolkit."""


class SynthesisError(RuntimeError):
    """Raised when a controller synthesis cannot be completed."""
