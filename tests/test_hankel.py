import itertools
from fractions import Fraction as F

import pytest

from czeta.errors import ParameterError, SingularParameter, UnsupportedEll
from czeta.exact import ExactMatrix, det_exact
from czeta.hankel import (
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
    _rayleigh_products,
)
from czeta.zeta import CoulombParams, rayleigh, zeta_table

from oracles import (
    dd_k_product,
    det_coulomb_k_product,
    dj_solution_formula,
    leibniz_det,
    rayleigh_k_product,
)

L_GRID = [F(-5, 4), F(-1, 2), F(0), F(1, 3), F(1), F(7, 2)]
ETA_GRID = [F(0), F(1, 2), F(1), F(2)]
NU_GRID = [F(1, 2), F(1), F(5, 2), F(4)]


def test_build_coulomb_hankel_frozen():
    p = CoulombParams(0, 0)
    assert build_coulomb_hankel(p, 1).matrix.entries == ((F(1, 3),),)
    assert build_coulomb_hankel(p, 2).matrix.entries == (
        (F(1, 3), F(0)),
        (F(0), F(1, 45)),
    )


def test_build_coulomb_hankel_parity_zeros():
    # at eta = 0 the odd zeta values vanish, so off-diagonal entries are 0 for n = 2
    m = build_coulomb_hankel(CoulombParams(F(1, 2), 0), 2).matrix
    assert m[0, 1] == 0 and m[1, 0] == 0


def test_det_closed_frozen():
    assert det_coulomb_closed(CoulombParams(0, 0), 2) == F(1, 135)
    assert det_coulomb_closed(CoulombParams(0, 1), 1) == F(2, 3)
    assert det_coulomb_closed(CoulombParams(0, 1), 2) == F(1, 27)


def test_det_closed_n1_is_base_value():
    from czeta.zeta import zeta_base

    for L, eta in itertools.product(L_GRID, ETA_GRID):
        p = CoulombParams(L, eta)
        assert det_coulomb_closed(p, 1) == zeta_base(p)


def test_recurrence_coeffs_frozen():
    c = recurrence_coeffs(CoulombParams(0, 0), 4)
    assert c.a(1) == F(1, 15)
    assert all(c.b(n) == 0 for n in range(5))
    c1 = recurrence_coeffs(CoulombParams(0, 1), 2)
    assert c1.b(0) == F(-1, 2)
    assert c1.a(1) == F(1, 12)


def test_moment_route_frozen():
    assert det_coulomb_via_moments(CoulombParams(0, 0), 1) == F(1, 3)
    assert det_coulomb_via_moments(CoulombParams(0, 0), 2) == F(1, 135)
    assert det_coulomb_via_moments(CoulombParams(0, 1), 2) == F(1, 27)


def test_moment_route_bessel_negative_integer():
    # eta = 0 cancellation keeps L = -2 usable: a_1 = -1, zeta(2) = -1
    p = CoulombParams(-2, 0)
    assert recurrence_coeffs(p, 1).a(1) == -1
    assert det_coulomb_via_moments(p, 2) == -1
    assert det_exact(build_coulomb_hankel(p, 2).matrix) == -1


@pytest.mark.parametrize("L", L_GRID)
@pytest.mark.parametrize("eta", ETA_GRID)
def test_three_routes_agree(L, eta):
    p = CoulombParams(L, eta)
    for n in range(1, 6):
        direct = det_exact(build_coulomb_hankel(p, n).matrix)
        assert direct == det_coulomb_closed(p, n) == det_coulomb_via_moments(p, n)


def _last_entries(routes):
    return {name: dets[-1] for name, dets in routes.items()}


def test_public_entry_point_verifies():
    # a family is checked by comparing the last entries of its routes
    assert _last_entries(coulomb_routes(CoulombParams(0, 0), 2)) == dict.fromkeys(
        ("direct", "closed", "moments"), F(1, 135))
    assert _last_entries(rayleigh_routes(F(1), 2, 2)) == dict.fromkeys(
        ("direct", "desnanot-jacobi", "closed"), det_rayleigh_ell2(1, 2))


def test_build_rayleigh_hankel_frozen():
    assert build_rayleigh_hankel(1, 0, 1).matrix.entries == ((F(1, 8),),)
    assert build_rayleigh_hankel(1, 1, 1).matrix.entries == ((F(1, 192),),)
    assert build_rayleigh_hankel(1, 2, 1).matrix.entries == ((F(1, 3072),),)


def test_rayleigh_closed_product_range_resolution():
    # the product range k = 1..2n+ell-1 must reproduce the 1 x 1 determinants
    # for both ell values (this pins down the formula's index reading)
    for nu in NU_GRID + [F(-1, 2), F(7, 3)]:
        assert det_rayleigh_closed(nu, 0, 1) == rayleigh(nu, 1)
        assert det_rayleigh_closed(nu, 1, 1) == rayleigh(nu, 2)
    assert det_rayleigh_closed(1, 1, 1) == F(1, 192)
    assert det_rayleigh_closed(1, 0, 2) == F(1, 73728)


@pytest.mark.parametrize("nu", NU_GRID)
@pytest.mark.parametrize("ell", [0, 1])
def test_rayleigh_closed_matches_direct(nu, ell):
    for n in range(1, 5):
        direct = det_exact(build_rayleigh_hankel(nu, ell, n).matrix)
        assert det_rayleigh_closed(nu, ell, n) == direct


def test_rayleigh_closed_rejects_higher_ell():
    with pytest.raises(UnsupportedEll):
        det_rayleigh_closed(1, 2, 1)


def test_ell01_formula_fails_at_ell2_witness():
    blind = _rayleigh_products(F(1), 2, 1)[-1]
    direct = det_exact(build_rayleigh_hankel(1, 2, 1).matrix)
    assert blind == F(1, 18432) and direct == F(1, 3072)
    assert blind != direct


def test_ell2_frozen_and_grid():
    assert det_rayleigh_ell2(1, 1) == F(1, 3072) == rayleigh(1, 3)
    assert det_rayleigh_ell2(F(1, 2), 1) == F(1, 945) == rayleigh(F(1, 2), 3)
    for nu in NU_GRID:
        for n in (2, 3):
            assert det_rayleigh_ell2(nu, n) == det_exact(build_rayleigh_hankel(nu, 2, n).matrix)


def test_ell3_frozen_and_grid():
    assert det_rayleigh_ell3(1, 1) == rayleigh(1, 4) == F(1, 46080)
    for nu, n in [(F(1, 2), 2), (F(3), 2), (F(5, 2), 3)]:
        assert det_rayleigh_ell3(nu, n) == det_exact(build_rayleigh_hankel(nu, 3, n).matrix)


def test_dj_equals_ell2_and_direct():
    assert det_rayleigh_dj(1, 2, 2) == det_rayleigh_ell2(1, 2)
    assert det_rayleigh_dj(1, 4, 2) == det_exact(build_rayleigh_hankel(1, 4, 2).matrix)
    for nu in NU_GRID:
        for ell in range(5):
            assert det_rayleigh_dj(nu, ell, 1) == rayleigh(nu, ell + 1)


@pytest.mark.parametrize("nu", NU_GRID)
def test_dj_grid_against_direct(nu):
    for ell in range(7):
        for n in range(1, 5):
            assert det_rayleigh_dj(nu, ell, n) == det_exact(
                build_rayleigh_hankel(nu, ell, n).matrix
            )


def test_dj_degenerate_division_falls_back_to_direct():
    # the ell = 3 bracket 2n^2+6n+3+nu(2n+3) vanishes at nu = -23/7, n = 2,
    # so the recursion toward ell = 5 divides by a zero determinant and must
    # fall back to the direct evaluation
    nu = F(-23, 7)
    assert det_exact(build_rayleigh_hankel(nu, 3, 2).matrix) == 0
    assert det_rayleigh_ell3(nu, 2) == 0
    direct = det_exact(build_rayleigh_hankel(nu, 5, 2).matrix)
    assert det_rayleigh_dj(nu, 5, 2) == direct


@pytest.mark.parametrize("nu", [F(1, 2), F(5, 2)])
@pytest.mark.parametrize("ell", [0, 1, 2])
def test_dj_against_explicit_solution_formula(nu, ell):
    def det(l, m):
        return det_exact(build_rayleigh_hankel(nu, l, m).matrix)

    for n in (1, 2, 3):
        assert dj_solution_formula(nu, ell, n, det) == det(ell + 2, n)


def test_positivity_for_nu_above_minus_one():
    for nu in [F(-1, 2), F(1, 2), F(1), F(5, 2)]:
        for ell in (0, 1, 2):
            for n in range(1, 6):
                assert det_exact(build_rayleigh_hankel(nu, ell, n).matrix) > 0


def test_bernoulli_hankel_frozen():
    assert bernoulli_hankel_det(0, 1) == F(1, 12)
    assert bernoulli_hankel_det(1, 1) == F(-1, 720)
    # 2 x 2 case against the Leibniz oracle on hand-built entries
    from czeta.zeta import bernoulli
    from math import factorial

    rows = [
        [bernoulli(1) / factorial(2), bernoulli(2) / factorial(4)],
        [bernoulli(2) / factorial(4), bernoulli(3) / factorial(6)],
    ]
    assert bernoulli_hankel_det(0, 2) == leibniz_det(rows) == F(1, 1209600)


def test_genocchi_hankel_frozen():
    assert genocchi_hankel_det(0, 1) == F(-1, 2)
    assert genocchi_hankel_det(1, 1) == F(1, 24)
    from czeta.zeta import genocchi
    from math import factorial

    rows = [
        [genocchi(1) / factorial(2), genocchi(2) / factorial(4)],
        [genocchi(2) / factorial(4), genocchi(3) / factorial(6)],
    ]
    assert genocchi_hankel_det(0, 2) == leibniz_det(rows) == F(1, 2880)


@pytest.mark.parametrize("ell", [0, 1])
def test_factorial_hankel_reciprocal_integers(ell):
    for n in range(1, 7):
        assert abs(bernoulli_hankel_det(ell, n).numerator) == 1
        assert abs(genocchi_hankel_det(ell, n).numerator) == 1


def test_factorial_hankel_rejects_bad_ell():
    with pytest.raises(UnsupportedEll):
        bernoulli_hankel_det(2, 1)
    with pytest.raises(UnsupportedEll):
        genocchi_hankel_det(-1, 1)


def test_bernoulli_matrix_is_scaled_rayleigh_matrix():
    # B_{2m}/(2m)! = -2 (-1/4)^m sigma_{2m}(1/2): the factorial Bernoulli
    # matrix is a diagonal scaling (alpha = -1/4) of the Rayleigh matrix at
    # nu = 1/2, up to the global factor -2/alpha = 8 per entry
    from czeta.zeta import bernoulli
    from math import factorial

    n = 3
    R = build_rayleigh_hankel(F(1, 2), 0, n).matrix
    for i in range(n):
        for j in range(n):
            m = i + j + 1  # 1-based index sum minus 1
            entry = bernoulli(m) / factorial(2 * m)
            assert entry == 8 * F(-1, 4) ** (i + j + 2) * R[i, j]


def test_parity_split_frozen_and_grid():
    ps = parity_split_check(1, 1)
    assert ps.even == (F(1, 384), F(1, 384))
    assert ps.odd[0] == ps.odd[1]
    for nu in [F(1, 2), F(1), F(5, 2)]:
        for n in (1, 2, 3):
            ps = parity_split_check(nu, n)
            assert ps.odd[0] == ps.odd[1]
            assert ps.even[0] == ps.even[1]


def test_rayleigh_builders_reject_bad_parameters():
    with pytest.raises(SingularParameter):
        build_rayleigh_hankel(-2, 0, 1)
    with pytest.raises(SingularParameter):
        build_rayleigh_hankel(1, 0, 0)
    # rayleigh_routes checks ell before it builds, so only a direct call gets here
    with pytest.raises(SingularParameter, match=r"^ell must be >= 0, got -1$"):
        build_rayleigh_hankel(1, -1, 2)
    with pytest.raises(SingularParameter):
        det_rayleigh_ell2(-1, 2)


@pytest.mark.parametrize("L, eta", [(F(-2), F(0)), (F(1, 3), F(1, 2))])
def test_coulomb_routes_over_n_equal_the_single_n_evaluators(L, eta):
    # (-2, 0) is the Bessel branch at a negative integer L
    p = CoulombParams(L, eta)
    routes = coulomb_routes(p, 6)
    assert list(routes) == ["direct", "closed", "moments"]
    for n in range(1, 7):
        assert set(_last_entries(coulomb_routes(p, n)).values()) == {routes["direct"][n - 1]}
        assert routes["direct"][n - 1] == det_exact(build_coulomb_hankel(p, n).matrix)
        assert routes["closed"][n - 1] == det_coulomb_closed(p, n)
        assert routes["moments"][n - 1] == det_coulomb_via_moments(p, n)
    assert coulomb_routes(p, 3, ("moments",)) == {"moments": routes["moments"][:3]}


@pytest.mark.parametrize(
    "L, eta",
    [(F(-185, 4), F(3, 2)), (F(-139, 3), F(0)), (F(-41, 4), F(-5, 4)), (F(-2), F(0)),
     (F(1, 3), F(1, 2))],
)
def test_engine_minors_give_the_recurrence_coefficients(L, eta):
    # a_k = D_{k+1} D_{k-1} / D_k^2 (D_0 = 1) from the engine's leading minors,
    # and b_k from the docstring's formula in Fraction arithmetic
    p = CoulombParams(L, eta)
    minors = [F(1), *coulomb_routes(p, 20, ("direct",))["direct"]]
    coeffs = recurrence_coeffs(p, 19)
    for k in range(1, 20):
        assert minors[k + 1] * minors[k - 1] / minors[k] ** 2 == coeffs.a(k)
    for k in range(20):
        assert coeffs.b(k) == (-eta / ((k + L + 1) * (k + L + 2)) if eta else 0)


@pytest.mark.parametrize("L, eta", [(F(-185, 4), F(3, 2)), (F(-2), F(0)), (F(1, 3), F(1, 2))])
def test_running_closed_product_equals_the_k_indexed_products(L, eta):
    from czeta.classify import dd_product_closed

    p = CoulombParams(L, eta)
    closed = coulomb_routes(p, 20, ("closed",))["closed"]
    for n in range(1, 21):
        assert closed[n - 1] == det_coulomb_closed(p, n) == det_coulomb_k_product(L, eta, n)
    for n in range(0, 21):
        assert dd_product_closed(p, n) == dd_k_product(L, eta, n)


@pytest.mark.parametrize("ell", [3, 5])
def test_rayleigh_routes_over_n_equal_the_single_n_evaluators(ell, monkeypatch):
    # nu = -23/7: at ell = 3 the 2 x 2 minor vanishes, and the recursion toward
    # ell = 5 divides by it, so Desnanot-Jacobi falls back to the direct value
    import czeta.hankel
    from czeta.exact import leading_minors

    passes = []

    def counted(matrix):
        passes.append(matrix)
        return leading_minors(matrix)

    monkeypatch.setattr(czeta.hankel, "leading_minors", counted)
    nu = F(-23, 7)
    routes = rayleigh_routes(nu, ell, 4)
    # the direct route's pass, and at ell = 5 one more for every degenerate n
    assert len(passes) == {3: 1, 5: 2}[ell]
    assert list(routes) == (["direct", "desnanot-jacobi", "closed"] if ell == 3
                            else ["direct", "desnanot-jacobi"])
    for n in range(1, 5):
        direct = det_exact(build_rayleigh_hankel(nu, ell, n).matrix)
        assert routes["direct"][n - 1] == direct
        assert set(_last_entries(rayleigh_routes(nu, ell, n)).values()) == {direct}
        assert routes["desnanot-jacobi"][n - 1] == det_rayleigh_dj(nu, ell, n) == direct
        if ell == 3:
            assert routes["closed"][n - 1] == det_rayleigh_ell3(nu, n)
    if ell == 3:
        assert routes["direct"][1] == 0


@pytest.mark.parametrize("ell", [0, 1])
def test_factorial_dets_over_n_equal_the_single_n_evaluators(ell):
    from math import factorial

    from czeta.hankel import _factorial_hankel_det
    from czeta.zeta import bernoulli, genocchi

    for g, (numbers, single) in enumerate(
        ((bernoulli, bernoulli_hankel_det), (genocchi, genocchi_hankel_det))
    ):
        dets = _factorial_hankel_det(g, ell, 8)
        assert len(dets) == 8
        # entry (i, j), 0-based, is X_{2m}/(2m)! with m = i+j+ell+1
        entries = {m: numbers(m) / factorial(2 * m) for m in range(ell + 1, ell + 16)}
        for n in range(1, 9):
            matrix = ExactMatrix(
                [[entries[i + j + ell + 1] for j in range(n)] for i in range(n)]
            )
            assert dets[n - 1] == single(ell, n) == det_exact(matrix)


@pytest.mark.parametrize("nu", [F(-23, 7), F(-1, 2), F(1, 3), F(1, 2), F(5, 2)])
def test_running_rayleigh_product_equals_its_k_indexed_form(nu):
    # the running product starts from P_0 = prod_{k<ell} (nu+k)^(k-ell), not 1
    for ell in range(6):
        products = _rayleigh_products(nu, ell, 12)
        assert products == [rayleigh_k_product(nu, ell, n) for n in range(1, 13)], ell


def test_desnanot_jacobi_degenerate_entries_take_the_direct_value(monkeypatch):
    # at nu = -23/7 the ell = 3, n = 2 minor vanishes; every recursion entry that
    # divides by it, or depends on one that does, takes the direct value, and
    # one leading-minor pass beside the direct route's serves all of them
    import czeta.hankel
    from czeta.exact import leading_minors

    nu = F(-23, 7)
    for ell, n in itertools.product(range(9), range(1, 6)):
        direct = det_exact(build_rayleigh_hankel(nu, ell, n).matrix)
        assert det_rayleigh_dj(nu, ell, n) == direct, (ell, n)
    passes = []

    def counted(matrix):
        passes.append(matrix)
        return leading_minors(matrix)

    monkeypatch.setattr(czeta.hankel, "leading_minors", counted)
    counts = []
    for ell in range(9):
        passes.clear()
        routes = rayleigh_routes(nu, ell, 5)
        assert routes["desnanot-jacobi"] == routes["direct"], ell
        counts.append(len(passes))
    assert max(counts) == 2 and min(counts) == 1, counts


def test_recurrence_coeffs_input_checks():
    params = CoulombParams(0, 1)
    with pytest.raises(SingularParameter, match=r"^nmax must be >= 1, got 0$"):
        recurrence_coeffs(params, 0)
    coeffs = recurrence_coeffs(params, 2)
    for n in (0, 3):
        with pytest.raises(IndexError, match=rf"^a_n available for 1 <= n <= 2, got {n}$"):
            coeffs.a(n)
    for n in (-1, 3):
        with pytest.raises(IndexError, match=rf"^b_n available for 0 <= n <= 2, got {n}$"):
            coeffs.b(n)


def test_routes_are_prefixes_of_longer_runs():
    # a route's n-th value does not depend on nmax, so one evaluation at the
    # largest nmax serves every shorter request; the quick verify grid's pairs
    # and the degenerate Desnanot-Jacobi nu = -23/7
    from czeta.verify import _param_grid, load_grid

    grid = load_grid(quick=True)
    N = 6
    for params in _param_grid(grid["coulomb_hankel"]):
        full = coulomb_routes(params, N)
        for k in range(1, N):
            assert coulomb_routes(params, k) == {name: v[:k] for name, v in full.items()}
    nus = {F(nu) for key in ("rayleigh_closed", "rayleigh_ell23", "desnanot_jacobi")
           for nu in grid[key]["nu"]}
    ells = range(max(grid["desnanot_jacobi"]["ell_max"], 3) + 1)
    pairs = [(nu, ell) for nu in sorted(nus) for ell in ells]
    pairs += [(F(-23, 7), ell) for ell in range(8)]
    for nu, ell in pairs:
        full = rayleigh_routes(nu, ell, N)
        for k in range(1, N):
            prefix = {name: v[:k] for name, v in full.items()}
            assert rayleigh_routes(nu, ell, k) == prefix, (nu, ell, k)


def test_routes_reject_nmax_below_one():
    with pytest.raises(SingularParameter, match="got 0"):
        coulomb_routes(CoulombParams(0, 0), 0, ("moments",))
    with pytest.raises(SingularParameter, match="got 0"):
        rayleigh_routes(1, 0, 0, ("closed",))
    # a negative ell is refused whichever routes are asked for
    for names in (None, ("closed",)):
        with pytest.raises(SingularParameter, match=r"^ell must be >= 0, got -1$"):
            rayleigh_routes(1, -1, 3, names)


def test_routes_name_the_valid_routes_for_an_unknown_one():
    # a misspelt route is a ParameterError listing the family's routes
    p = CoulombParams(F(1, 3), F(1, 2))
    with pytest.raises(ParameterError, match=r"^unknown route 'closd'; the routes are "
                                             r"direct, closed, moments$"):
        coulomb_routes(p, 3, ("closd",))
    # the check reads the names once, so an iterator still selects its routes
    assert coulomb_routes(p, 3, iter(["closed"])) == coulomb_routes(p, 3, ("closed",))
    # the closed route of an ell without one is a known name: named, it raises
    # UnsupportedEll, and the default leaves it out; "dj" is the CLI's alias only
    for names in (("closed",), ("direct", "closed")):
        with pytest.raises(UnsupportedEll, match=r"^no closed form for ell = 5; "
                                                 r"the closed route covers ell = 0\.\.3$"):
            rayleigh_routes(1, 5, 2, names)
    assert list(rayleigh_routes(1, 5, 2)) == ["direct", "desnanot-jacobi"]
    for names in (("dj",), ("direct", "closd")):
        with pytest.raises(ParameterError, match=r"the routes are direct, desnanot-jacobi, closed$"):
            rayleigh_routes(1, 5, 2, names)


def test_routes_refuse_one_string_of_names():
    # a bare string would be read letter by letter; None and () still mean every route
    p = CoulombParams(F(1, 3), F(1, 2))
    for routes, args in ((coulomb_routes, (p, 2)), (rayleigh_routes, (1, 0, 2))):
        with pytest.raises(ParameterError, match=r"^names is a sequence of route names, "
                                                 r"got the string 'closed'$"):
            routes(*args, "closed")
        assert routes(*args, None) == routes(*args, ()) == routes(*args)
    assert list(rayleigh_routes(1, 0, 2, ())) == ["direct", "desnanot-jacobi", "closed"]


def test_verify_all_makes_one_engine_call_per_parameter_pair(monkeypatch):
    import czeta.exact
    import czeta.hankel
    import czeta.zeta
    from functools import partial

    from czeta.exact import leading_minors
    from czeta.hankel import _coulomb_closed
    from czeta.verify import _FAMILIES, _read_routes, _tally, load_grid
    from czeta.zeta import zeta_table

    calls = {"leading_minors": 0, "zeta_table": 0, "closed": 0, "det_exact": 0, "products": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(czeta.hankel, "leading_minors", counted("leading_minors", leading_minors))
    monkeypatch.setattr(czeta.hankel, "_coulomb_closed", counted("closed", _coulomb_closed))
    monkeypatch.setattr(czeta.exact, "det_exact", counted("det_exact", det_exact))
    monkeypatch.setattr(czeta.hankel, "_rayleigh_products", counted("products", _rayleigh_products))
    for module in (czeta.hankel, czeta.zeta):
        monkeypatch.setattr(module, "zeta_table", counted("zeta_table", zeta_table))
    grid = load_grid(quick=True)
    # sign-products reads a prefix of what coulomb-hankel evaluated, and
    # desnanot-jacobi reads ell <= 3 from rayleigh-closed and rayleigh-ell23
    coulomb, signs = grid["coulomb_hankel"], grid["sign_products"]
    assert (coulomb["L"], coulomb["eta"]) == (signs["L"], signs["eta"])
    assert signs["n_max"] + 1 <= coulomb["n_max"]
    nus = len(grid["rayleigh_closed"]["nu"])
    dj = grid["desnanot_jacobi"]
    assert all(grid[key]["nu"] == dj["nu"] and grid[key]["n_max"] >= dj["n_max"]
               for key in ("rayleigh_closed", "rayleigh_ell23"))
    coulomb_pairs, new_ells = len(coulomb["L"]) * len(coulomb["eta"]), dj["ell_max"] - 3
    # (family, leading_minors calls, zeta tables, closed products, det_exact calls,
    # Rayleigh products) when the families run in order through one route table:
    # each family evaluates every route of the pairs no earlier family evaluated
    # at as large an n, and no family needs a determinant outside leading_minors
    expected = {
        # one direct table per pair; the moment route reads zeta_L(2) from zeta_base
        "coulomb-hankel": (coulomb_pairs, coulomb_pairs, coulomb_pairs, 0, 0),
        # per nu: the direct pass and table at ell = 0, 1; a running product for
        # each closed form, and the recursion's rows 0 (ell = 0) and 0, 1 (ell = 1)
        "rayleigh-closed": (2 * nus, 2 * nus, 0, 0, 5 * nus),
        # per pair: the direct pass and table, the recursion's rows 0 and 1 and the
        # closed product; the blind ell = 2 witness reads the table, and
        # czeta.verify reads its product through its own import
        "rayleigh-ell23": (2 * nus, 2 * nus, 0, 0, 2 * 3 * nus),
        # only the ell > 3 pairs are new: a direct pass and table and the
        # recursion's rows 0 and 1 each
        "desnanot-jacobi": (new_ells * nus, new_ells * nus, 0, 0, 2 * new_ells * nus),
        # per ell: one pass and one table for the Bernoulli determinants, one pass
        # and two tables for the Genocchi ones (entries and their bridge check),
        # and one running product for each one's closed form
        "bernoulli-genocchi": (4, 6, 0, 0, 4),
        "sign-products": (0, 0, 0, 0, 0),
        # the classifier reads signs off the product's factors; the rest is numeric
        "classification": (0, 0, 0, 0, 0),
        "zeros": (0, 0, 0, 0, 0),
        "hurwitz": (0, 0, 0, 0, 0),
    }
    assert [family.name for family in _FAMILIES] == list(expected)
    table = partial(_read_routes, {})
    for family in _FAMILIES:
        calls.update(leading_minors=0, zeta_table=0, closed=0, det_exact=0, products=0)
        cases, bad, _ = _tally(family.run(grid[family.key], table))
        assert cases > 0 and not bad
        assert tuple(calls.values()) == expected[family.name], family.name


def test_every_exact_consumer_of_a_pair_reads_one_zeta_table(builds):
    # the case exact-deep times: its own table, then the matrix, the routes and
    # a smaller matrix all read prefixes of it
    p = CoulombParams(F(-133, 3), F(3, 2))
    table = zeta_table(p, 110)
    assert build_coulomb_hankel(p, 20).matrix[19, 19] == table.value(40)
    coulomb_routes(p, 20)
    det_exact(build_coulomb_hankel(p, 12).matrix)
    assert builds == [(p, 110)]


def test_parity_split_reads_one_zeta_table(builds):
    # the zeta side through zeta_L(18) and both Rayleigh sides at nu = 5/2
    # (sigma_{2k}(nu) = zeta_{nu-1/2}(2k) / 2) read one table of (L, eta) = (2, 0)
    split = parity_split_check(F(5, 2), 4)
    assert split.odd[0] == split.odd[1] and split.even[0] == split.even[1]
    assert builds == [(CoulombParams(2, 0), 18)]


@pytest.mark.parametrize("quick, tables, pairs", [(False, 38, 27), (True, 14, 8)])
def test_verify_all_builds_each_pairs_table_once_per_longer_request(builds, quick, tables, pairs):
    # from an empty store; every build past the first of a pair is asked for a
    # longer table than the pair holds, none is a pair the store let go
    from czeta.verify import run_verification

    assert all(family.passed for family in run_verification(quick=quick))
    assert (len(builds), len({params for params, _ in builds})) == (tables, pairs)
    longest = {}
    for params, kmax in builds:
        assert kmax > longest.get(params, 1)
        longest[params] = kmax


def _perturbed_products(monkeypatch, at_ell):
    """Double every running Rayleigh product at `at_ell`, wherever czeta.hankel reads them."""
    import czeta.hankel

    def perturbed(nu, ell, nmax):
        products = _rayleigh_products(nu, ell, nmax)
        return [2 * p for p in products] if ell == at_ell else products

    monkeypatch.setattr(czeta.hankel, "_rayleigh_products", perturbed)


def test_rayleigh_routes_show_which_route_disagrees(monkeypatch):
    _perturbed_products(monkeypatch, 0)
    # every route's value, direct first: the two built on the products are off
    assert _last_entries(rayleigh_routes(1, 0, 2)) == {
        "direct": F(1, 73728), "desnanot-jacobi": F(1, 36864), "closed": F(1, 36864)}
    assert rayleigh_routes(1, 0, 2, ("direct",))["direct"][-1] == det_exact(
        build_rayleigh_hankel(1, 0, 2).matrix)


def test_desnanot_jacobi_computes_its_one_by_one_entries(monkeypatch):
    # rows ell >= 2 start from d_0 = 1 alone, so d_1^(2) comes from the ell = 0
    # and 1 rows: a wrong ell = 0 product shows at n = 1 too
    _perturbed_products(monkeypatch, 0)
    routes = rayleigh_routes(1, 2, 1, ("direct", "desnanot-jacobi"))
    assert routes["desnanot-jacobi"] != routes["direct"] == [rayleigh(1, 3)]


@pytest.mark.parametrize("ell", [2, 3, 6])
def test_desnanot_jacobi_builds_no_zeta_table(monkeypatch, ell):
    # away from a degenerate nu the recursion reads the running products alone
    import czeta.hankel
    import czeta.zeta
    from czeta.zeta import zeta_table

    tables = []

    def counted(*args):
        tables.append(args)
        return zeta_table(*args)

    for module in (czeta.hankel, czeta.zeta):
        monkeypatch.setattr(module, "zeta_table", counted)
    dj = {nu: rayleigh_routes(nu, ell, 4, ("desnanot-jacobi",))["desnanot-jacobi"]
          for nu in NU_GRID}
    assert not tables
    for nu, dets in dj.items():
        assert dets == rayleigh_routes(nu, ell, 4, ("direct",))["direct"], nu
