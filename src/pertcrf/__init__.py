"""Sequence-labeling toolkit for Persian ezafe recognition and POS tagging
with linear-chain CRFs: corpus protocol, window/affix feature templates,
elastic-net training, exact inference, evaluation, and a synthetic-data
oracle for verification."""

import os

# Threaded BLAS sums in an order that depends on the thread count, so model
# bytes would depend on the machine: one thread unless the caller sets one.
# BLAS reads them when numpy is first imported, which comes after this.
_BLAS = "OPENBLAS_NUM_THREADS OMP_NUM_THREADS MKL_NUM_THREADS VECLIB_MAXIMUM_THREADS NUMEXPR_NUM_THREADS"
for _var in _BLAS.split():
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
