import random
import sys
import threading
from fractions import Fraction as F

import pytest

import czeta.zeta
from czeta.classify import classify
from czeta.errors import ParameterError, SingularParameter, VerificationError
from czeta.hankel import _coulomb_closed, recurrence_coeffs
from czeta.zeta import (
    CoulombParams,
    ZetaTable,
    _build_table,
    bernoulli,
    genocchi,
    rayleigh,
    zeta_base,
    zeta_table,
)

from oracles import bernoulli_classical, GENOCCHI_CLASSICAL, sigma2_closed, sigma4_closed, sigma6_from_convolution


def test_base_value_frozen_cases():
    assert zeta_base(CoulombParams(0, 0)) == F(1, 3)
    assert zeta_base(CoulombParams(0, 1)) == F(2, 3)
    # at L = 1/2, eta = 0 the base value is twice sigma_2(1) = 2/8
    assert zeta_base(CoulombParams(F(1, 2), 0)) == F(1, 4) == 2 * sigma2_closed(1)


def test_base_singular_parameters():
    with pytest.raises(SingularParameter):
        zeta_base(CoulombParams(F(-3, 2), 0))
    with pytest.raises(SingularParameter):
        zeta_base(CoulombParams(-1, 1))
    # eta = 0 allows negative integers
    assert zeta_base(CoulombParams(-1, 0)) == 1
    assert zeta_base(CoulombParams(-2, 0)) == -1


@pytest.mark.parametrize("L, eta", [
    (float("nan"), 0), (float("inf"), 0), (float("-inf"), 0), ("x", 0), (None, 0), ("1/0", 0),
    (0, float("nan")), (0, float("inf")), (0, "x"), (0, None),
])
def test_params_refuse_a_value_that_is_no_finite_rational(L, eta):
    name, value = ("L", L) if eta == 0 else ("eta", eta)
    with pytest.raises(ParameterError, match=rf"^{name} must be a finite rational, got ") as exc:
        CoulombParams(L, eta)
    assert exc.type is ParameterError and exc.value.args[0].endswith(repr(value))
    assert isinstance(exc.value, ValueError)  # callers catching ValueError still work


def test_rayleigh_refuses_a_nu_that_is_no_finite_rational():
    for nu in (float("nan"), float("inf"), "x", None):
        with pytest.raises(ParameterError, match=r"^nu must be a finite rational, got ") as exc:
            rayleigh(nu, 1)
        assert exc.type is ParameterError


def test_recurrence_hand_unrolled():
    # empty convolution at the first step: zeta(3) = (1/4) * 2 * zeta(2)
    t = zeta_table(CoulombParams(0, 1), 5)
    assert t.value(3) == F(1, 3)
    assert t.value(4) == F(2, 9)
    assert t.value(5) == F(4, 27)
    # eta = 0: single convolution term, zeta(4) = zeta(2)^2 / 5
    t0 = zeta_table(CoulombParams(0, 0), 8)
    assert t0.values() == [F(1, 3), 0, F(1, 45), 0, F(2, 945), 0, F(1, 4725)]


@pytest.mark.parametrize("nu", [F(1, 2), F(1), F(5, 2), F(4), F(-1, 2), F(7, 3)])
def test_parity_odd_values_vanish(nu):
    t = zeta_table(CoulombParams(nu - F(1, 2), 0), 23)
    for k in range(1, 11):
        assert t.value(2 * k + 1) == 0


def test_negative_integer_orbital_on_bessel_branch():
    # the recurrence meets a 0/0 at one odd index; evenness fixes it to 0
    t = zeta_table(CoulombParams(-2, 0), 8)
    assert t.value(3) == 0 and t.value(5) == 0 and t.value(7) == 0
    assert t.value(2) == -1
    assert t.value(4) == 1  # zeta(2)^2 / (2L+5) = 1/1


def test_a_nonzero_odd_value_at_the_recurrence_pole_raises():
    # (-2, 1) is on the excluded set, which the constructor refuses; past it, the pole
    # 2L+k+2 = 0 meets an odd zeta_L(3) that is not 0, and the build raises, under -O too
    params = object.__new__(CoulombParams)
    params._set_fields(F(-2), F(1))
    with pytest.raises(VerificationError,
                       match=r"^odd zeta_L\(3\) != 0 at the pole 2L\+k\+2 = 0, L = -2$"):
        zeta_table(params, 4)
    assert params not in czeta.zeta._tables


def test_validate_rejects_every_closed_formula_pole():
    # the CoulombParams constructor is the only check of the excluded set: each zero of
    # a factor of zeta_L(2), of the recurrence coefficients a_n, b_n, of the
    # closed product or of the classifier's signs must lie in it
    for m in range(1, 61):
        n = m - 1  # b_n and the classifier's sign index start at 0
        every_eta = {
            "2L+3 of zeta_L(2)": F(-3, 2),
            "2m+2L+1 of a_m and the closed product": F(-2 * m - 1, 2),
            "2m+2L+3 of a_m": F(-2 * m - 3, 2),
            "2L+2n+3 of the classifier": F(-2 * n - 3, 2),
        }
        eta_nonzero = {
            "L+1 of zeta_L(2)": F(-1),
            "n+L+1 of b_n": F(-n - 1),
            "n+L+2 of b_n": F(-n - 2),
            "m+L+1 of a_m": F(-m - 1),
            "L+m of the closed product": F(-m),
            "L+n+1 of the classifier": F(-n - 1),
        }
        for etas, poles in (((0, F(1, 2)), every_eta), ((F(1, 2),), eta_nonzero)):
            for factor, L in poles.items():
                for eta in etas:
                    try:
                        CoulombParams(L, eta)
                    except SingularParameter:
                        continue
                    pytest.fail(f"{factor} vanishes at L = {L}, eta = {eta}; the pair is built")
        # the eta = 0 branch keeps negative integer L, and the formulas answer there
        params = CoulombParams(-m, 0)
        assert len(_coulomb_closed(params, 8)) == 8
        assert recurrence_coeffs(params, 8).nmax == 8
        assert classify(params).pair_count == m - 1


def test_table_is_memoized_and_monotone():
    t = zeta_table(CoulombParams(0, 1), 4)
    first = t.values()
    grown = t.extend_to(10)
    assert grown.values()[: len(first)] == first
    assert grown.kmax == 10
    assert t.kmax == 4 and t.values() == first
    assert grown.extend_to(10) is grown and grown.extend_to(4) is grown


@pytest.mark.parametrize(
    "L, eta",
    [
        (0, 1),
        (-2, 0),  # at eta = 0 the negative integers pass the 0/0 branch
        (-5, 0),
        # eta != 0 pairs from the exact-deep grid L = -(m+q), |L| up to 46
        *(pytest.param(-(m + q), eta, id=f"{-(m + q)}-{eta}") for m, q, eta in [
            (10, F(1, 4), F(3, 4)),
            (23, F(2, 3), F(3, 2)),
            (31, F(1, 3), F(1, 4)),
            (38, F(3, 4), F(11, 4)),
            (45, F(2, 3), F(3)),
        ]),
    ],
)
def test_table_grown_in_steps_equals_one_call(L, eta):
    # a table is built once: extend_to in any steps gives tables equal to a
    # one-call build, each a prefix of any longer one, and leaves its receiver
    # as it was; value past kmax names the range instead of growing
    p = CoulombParams(L, eta)
    whole = _build_table(p, 110).values()  # past the store, so it cannot vouch for itself
    small = zeta_table(p, 2)
    rng = random.Random(f"{L} {eta}")
    kmax = 2
    while kmax < 110:
        kmax = min(110, kmax + rng.choice((1, 2, 3, 7, 13, 29)))
        grown = small.extend_to(kmax)
        assert grown == _build_table(p, kmax) and grown.values() == whole[:kmax - 1]
        assert small.kmax == 2 and small.values() == whole[:1]
        assert grown.extend_to(kmax) is grown and grown.extend_to(2) is grown
        with pytest.raises(IndexError, match=rf"^zeta_L\(k\) available for 2 <= k <= {kmax}, "
                                             rf"got {kmax + 1}$"):
            grown.value(kmax + 1)
        assert grown.kmax == kmax


def test_concurrent_extend_to_on_one_shared_table_matches_a_fresh_build():
    # three threads at once call extend_to on one shared table, for each of 20
    # fresh pairs, with a thread switch every microsecond; each result must equal
    # a fresh build past the store, and the shared table must stay as it was
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    wrong = []
    try:
        for i in range(20):
            p = CoulombParams(F(-(4 * i + 1), 4), F(2 * i + 1, 2))
            shared = zeta_table(p, 3)
            before = shared.values()
            kmaxes = (40, 60, 80)
            results = [None] * len(kmaxes)
            barrier = threading.Barrier(len(kmaxes))

            def grow(j):
                barrier.wait()
                try:
                    results[j] = shared.extend_to(kmaxes[j]).values()
                except Exception as exc:  # a corrupted table may raise anywhere
                    results[j] = exc

            threads = [threading.Thread(target=grow, args=(j,)) for j in range(len(kmaxes))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for kmax, result in zip(kmaxes, results):
                if result != _build_table(p, kmax).values():
                    wrong.append((p, kmax))
            if shared.values() != before:
                wrong.append((p, "shared table changed"))
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_a_shorter_request_is_a_prefix_of_the_held_table(builds):
    p = CoulombParams(F(-133, 3), F(3, 2))
    held = zeta_table(p, 60)
    assert zeta_table(p, 60) is held and held.extend_to(40) is held
    for kmax in (2, 3, 41, 59):
        assert zeta_table(p, kmax).values() == held.values()[:kmax - 1]
    assert builds == [(p, 60)]
    # a longer request builds the pair's table again and holds it instead
    longer = zeta_table(p, 80)
    assert longer.values()[:59] == held.values() and zeta_table(p, 70).values() == longer.values()[:69]
    assert builds == [(p, 60), (p, 80)] and czeta.zeta._tables == {p: longer}


def test_the_store_holds_the_last_sixteen_pairs(builds):
    pairs = [CoulombParams(F(i, 3), F(1, 2)) for i in range(17)]
    for p in pairs:
        zeta_table(p, 6)
    assert len(builds) == 17 and list(czeta.zeta._tables) == pairs[1:]
    zeta_table(pairs[16], 6)  # a held pair builds nothing
    assert len(builds) == 17
    zeta_table(pairs[0], 6)  # the oldest went first: it builds again
    assert builds[-1] == (pairs[0], 6) and len(builds) == 18
    assert list(czeta.zeta._tables) == pairs[2:] + pairs[:1]
    # a rebuilt pair becomes the newest, so the next fresh pair evicts another
    zeta_table(pairs[2], 9)
    zeta_table(CoulombParams(7, 0), 6)
    assert list(czeta.zeta._tables) == pairs[4:] + [pairs[0], pairs[2], CoulombParams(7, 0)]


def test_threads_sharing_the_store_read_every_table_right(builds):
    # 4 threads ask for 40 pairs at random kmax with a thread switch every
    # microsecond, so the threads' builds, holds and evictions interleave;
    # every table must equal a build past the store
    pairs = [CoulombParams(F(-(4 * i + 1), 4), F(2 * i + 1, 2)) for i in range(40)]
    whole = {p: _build_table(p, 110).values() for p in pairs}
    wrong = []

    def read(seed):
        rng = random.Random(seed)
        for p in rng.sample(pairs, len(pairs)):
            kmax = rng.choice((3, 20, 60, 110))
            try:
                table = zeta_table(p, kmax)
                if table.params != p or table.values() != whole[p][:kmax - 1]:
                    wrong.append((p, kmax))
            except Exception as exc:  # a store read while another thread evicts may raise
                wrong.append((p, kmax, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [] and len(builds) >= 40
    assert len(czeta.zeta._tables) <= 16


def test_a_refused_request_is_never_held(builds):
    params = CoulombParams(0, 1)
    for _ in range(2):
        with pytest.raises(ParameterError, match=r"^kmax must be >= 2, got 1$") as exc:
            zeta_table(params, 1)
        assert exc.type is ParameterError
    # an excluded pair is refused where it is built, so it never reaches the store
    with pytest.raises(SingularParameter, match=r"^L = -2 on excluded set -\(N\+1\)/2 \(eta != 0\)$"):
        zeta_table(CoulombParams(-2, 1), 8)
    assert builds == [] and czeta.zeta._tables == {}


def test_table_repr_and_equality_see_only_params_and_values(monkeypatch):
    p = CoulombParams(F(-1, 3), F(1, 2))
    table = zeta_table(p, 12)
    assert repr(table) == f"ZetaTable(params={p!r}, _values={tuple(table.values())!r})"
    assert table == zeta_table(p, 3).extend_to(5).extend_to(8).extend_to(12)
    assert hash(table) == hash(zeta_table(p, 12))
    assert table != zeta_table(p, 13)
    assert table != zeta_table(CoulombParams(F(-1, 3), F(1, 3)), 12)
    # the class takes a replacement method, as a tracer installs one
    grown = []
    extend_to = ZetaTable.extend_to

    def counted(self, kmax):
        grown.append(kmax)
        return extend_to(self, kmax)

    monkeypatch.setattr(ZetaTable, "extend_to", counted)
    assert table.extend_to(14) == zeta_table(p, 14) and grown == [14]


def test_rayleigh_against_closed_formulas():
    for nu in [F(1, 2), F(1), F(5, 2), F(4), F(-1, 2), F(7, 3), F(-4, 3)]:
        assert rayleigh(nu, 1) == sigma2_closed(nu)
        assert rayleigh(nu, 2) == sigma4_closed(nu)
        assert rayleigh(nu, 3) == sigma6_from_convolution(nu)


def test_rayleigh_frozen_values():
    assert rayleigh(1, 1) == F(1, 8)
    assert rayleigh(1, 2) == F(1, 192)
    assert rayleigh(1, 3) == F(1, 3072)
    assert rayleigh(F(1, 2), 3) == F(1, 945)


def test_rayleigh_rejects_negative_integers():
    for nu in (-1, -2, F(-3)):
        with pytest.raises(SingularParameter):
            rayleigh(nu, 1)


def test_positivity_of_base_value():
    for L in [F(-5, 4), F(-1, 2), 0, F(1, 3), 1, F(7, 2)]:
        for eta in [0, F(1, 2), 1, 2]:
            assert zeta_base(CoulombParams(L, eta)) > 0


def test_deep_tables_stay_exact_on_rational_grid():
    for L in [F(-5, 4), F(-1, 2), F(1, 3), F(7, 2), F(-9, 5)]:
        for eta in [0, F(1, 2), F(3, 2)]:
            table = zeta_table(CoulombParams(L, eta), 24)
            assert len(table.values()) == 23
            assert all(isinstance(v, F) for v in table.values())


def test_bernoulli_against_classical_recurrence():
    for n in range(1, 11):
        assert bernoulli(n) == bernoulli_classical(2 * n)


def test_genocchi_both_bridges_and_classical_values():
    # genocchi() already asserts the sigma(-1/2) route internally
    for n in range(1, 11):
        assert genocchi(n) == GENOCCHI_CLASSICAL[n - 1]


def test_a_genocchi_bridge_mismatch_raises(monkeypatch):
    # sigma_6(-1/2) doubled: the second route gives -6 for G_6 = -3
    plain = czeta.zeta._sigmas

    def doubled_at_index_2(nu, kmax):
        sigmas = plain(nu, kmax)
        if nu == F(-1, 2):
            sigmas[2] *= 2
        return sigmas

    monkeypatch.setattr(czeta.zeta, "_sigmas", doubled_at_index_2)
    with pytest.raises(VerificationError, match=r"^Genocchi bridge mismatch at n = 3: -3 != -6$"):
        genocchi(4)


def test_bernoulli_frozen_small_cases():
    assert bernoulli(1) == F(1, 6)
    assert bernoulli(2) == F(-1, 30)
    assert bernoulli(3) == F(1, 42)
    assert genocchi(1) == -1
    assert genocchi(2) == 1
    assert genocchi(3) == -3


def test_zeta_value_beyond_kmax_extends_the_table():
    # a value past kmax comes from the table extend_to returns; the table
    # read stays as it was and names its range
    params = CoulombParams(0, 1)
    table = zeta_table(params, 3)
    assert table.kmax == 3
    with pytest.raises(IndexError, match=r"^zeta_L\(k\) available for 2 <= k <= 3, got 6$"):
        table.value(6)
    extended = table.extend_to(6)
    assert extended.value(6) == zeta_table(params, 6).values()[-1]
    assert extended.kmax == 6 and extended.values() == zeta_table(params, 6).values()
    assert table.kmax == 3 and table.values() == zeta_table(params, 3).values()


def test_zeta_input_checks_name_the_bad_index():
    params = CoulombParams(0, 1)
    table = zeta_table(params, 3)
    for call, message in [
        (lambda: zeta_table(params, 1), "kmax must be >= 2, got 1"),
        (lambda: table.value(1), "k must be >= 2, got 1"),
        (lambda: rayleigh(1, 0), "k must be >= 1, got 0"),
        (lambda: bernoulli(0), "n must be >= 1, got 0"),
        (lambda: genocchi(0), "n must be >= 1, got 0"),
    ]:
        with pytest.raises(ParameterError) as exc:
            call()
        assert exc.type is ParameterError and str(exc.value) == message
