"""Cough-audio feature extraction and ensemble MCDM model selection."""

__version__ = "0.1.0"
