"""Cough-audio feature extraction and ensemble MCDM model selection."""

__version__ = "0.1.0"


class InputError(ValueError):
    """Outside input (a file, a line of one, an option) that breaks its contract."""
