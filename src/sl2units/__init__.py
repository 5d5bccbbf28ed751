"""Exact SL2 arithmetic over Z, Z[1/m], and Z[sqrt(d)]: elementary-matrix
decompositions, unit certificates, bounded-conjugate witnesses, and word
metrics on finite quotients."""

__version__ = "0.1.0"
