"""Exact multi-Hamiltonian structures and numerical flows of Toda and Volterra lattices.

The symbolic core (`polyalg`, `poisson`, `catalog`, `reduction`, `bogo`,
`moser`, the sparse solver `_linsolve`, and `checks`, the paper's identities)
works over one exact coefficient ring, the Gaussian rationals, so every
algebraic identity is checked as a polynomial zero.  The `flows` module
compiles polynomial vector fields to float arrays, integrates them with one
RK4 kernel (`_kernels`: a straight-line Python step generated per field)
and monitors the conserved traces of the Lax matrix.
"""

__version__ = "0.1.0"

__all__ = [
    "polyalg",
    "poisson",
    "catalog",
    "reduction",
    "bogo",
    "moser",
    "checks",
    "flows",
]
