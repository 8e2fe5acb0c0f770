"""Exact spectral-zeta / Hankel determinant toolkit for the regular Coulomb
wave function, with algebraic and numeric classification of its zeros.

The exact modules load with the package.  The float zero finder,
``czeta.numeric``, loads on first use of one of its names (a PEP 562 module
``__getattr__``), which then binds that name here; ``import czeta`` and the
exact commands never compile it.

``czeta.classify`` is the function, re-exported under its submodule's name;
the module is ``sys.modules["czeta.classify"]``.  This file loads the module
before it binds the name to the function, so a later ``import czeta.classify``
(or of ``czeta.cli`` or ``czeta.verify``) finds it loaded and leaves the name
alone; a lazy ``classify`` would lose that.  No numeric name is also a
submodule's name, so deferring them changes no such binding.
"""

from .exact import (
    ExactMatrix,
    det_exact,
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
    coulomb_routes,
    det_coulomb_closed,
    det_coulomb_via_moments,
    det_rayleigh_closed,
    det_rayleigh_dj,
    det_rayleigh_ell2,
    det_rayleigh_ell3,
    genocchi_hankel_det,
    parity_split_check,
    rayleigh_routes,
    recurrence_coeffs,
)
from .classify import HurwitzCount, ZeroClassification, classify, dd_product_closed, hurwitz_counts

__version__ = "0.1.0"

_NUMERIC = frozenset({
    "Rect",
    "ZeroReport",
    "count_zeros_region",
    "default_search_region",
    "find_complex_zeros",
    "phi",
    "phi_derivative",
})


def __getattr__(name):
    """Load `czeta.numeric` on first use of one of its names and bind the name here."""
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import numeric

    value = globals()[name] = getattr(numeric, name)
    return value


def __dir__():
    return sorted(globals().keys() | _NUMERIC)


__all__ = [
    "CoulombHankel",
    "CoulombParams",
    "ExactMatrix",
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
    "coulomb_routes",
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
    "rayleigh_routes",
    "recurrence_coeffs",
    "zeta_base",
    "zeta_table",
]
