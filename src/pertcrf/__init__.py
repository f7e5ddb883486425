"""Sequence-labeling toolkit for Persian ezafe recognition and POS tagging
with linear-chain CRFs: corpus protocol, window/affix feature templates,
elastic-net training, exact inference, evaluation, and a synthetic-data
oracle for verification."""

__version__ = "0.1.0"
