"""Exact spectral-zeta / Hankel determinant toolkit for the regular Coulomb
wave function, with algebraic and numeric classification of its zeros.

``czeta.classify`` is the function, re-exported under its submodule's name;
the module is ``sys.modules["czeta.classify"]``.  This file loads the module
before it binds the name to the function, so a later ``import czeta.classify``
(or of ``czeta.cli`` or ``czeta.verify``) finds it loaded and leaves the name
alone; a lazy package ``__init__`` would lose that.
"""

from .exact import (
    ExactMatrix,
    ExactRational,
    det_exact,
    diag_scale,
    format_rational,
    leading_minors,
    parse_rational,
)
from .zeta import (
    CoulombParams,
    ZetaTable,
    bernoulli,
    genocchi,
    rayleigh,
    zeta_base,
    zeta_extend,
    zeta_table,
)
from .hankel import (
    CoulombHankel,
    ParitySplit,
    RayleighHankel,
    RecurrenceCoeffs,
    bernoulli_hankel_det,
    build_coulomb_hankel,
    build_rayleigh_hankel,
    coulomb_hankel_det,
    det_coulomb_closed,
    det_coulomb_via_moments,
    det_rayleigh_closed,
    det_rayleigh_dj,
    det_rayleigh_ell2,
    det_rayleigh_ell3,
    genocchi_hankel_det,
    parity_split_check,
    rayleigh_hankel_det,
    recurrence_coeffs,
)
from .classify import HurwitzCount, ZeroClassification, classify, dd_product_closed, hurwitz_counts
from .numeric import (
    Rect,
    ZeroReport,
    count_zeros_region,
    default_search_region,
    find_complex_zeros,
    phi,
    phi_derivative,
)

__version__ = "0.1.0"

__all__ = [
    "CoulombHankel",
    "CoulombParams",
    "ExactMatrix",
    "ExactRational",
    "HurwitzCount",
    "ParitySplit",
    "RayleighHankel",
    "Rect",
    "RecurrenceCoeffs",
    "ZeroClassification",
    "ZeroReport",
    "ZetaTable",
    "bernoulli",
    "bernoulli_hankel_det",
    "build_coulomb_hankel",
    "build_rayleigh_hankel",
    "classify",
    "coulomb_hankel_det",
    "count_zeros_region",
    "dd_product_closed",
    "default_search_region",
    "det_coulomb_closed",
    "det_coulomb_via_moments",
    "det_exact",
    "det_rayleigh_closed",
    "det_rayleigh_dj",
    "det_rayleigh_ell2",
    "det_rayleigh_ell3",
    "diag_scale",
    "find_complex_zeros",
    "format_rational",
    "genocchi",
    "genocchi_hankel_det",
    "hurwitz_counts",
    "leading_minors",
    "parity_split_check",
    "parse_rational",
    "phi",
    "phi_derivative",
    "rayleigh",
    "rayleigh_hankel_det",
    "recurrence_coeffs",
    "zeta_base",
    "zeta_extend",
    "zeta_table",
]
