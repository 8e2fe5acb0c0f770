from functools import partial
from types import SimpleNamespace

import pytest

from czeta.verify import FamilyResult, _match_expected_zeros, _read_routes


def report(*zeros):
    return SimpleNamespace(zeros=list(zeros))


def test_one_found_zero_cannot_match_two_expected_zeros():
    # both expected zeros lie within tol of the first found zero; the second
    # found zero is far from both, so no one-to-one matching exists
    expected = [(0.15, 0.252), (0.1501, 0.252)]
    assert not _match_expected_zeros(report(0.15005 + 0.252j, 2 + 1j), expected, 5e-4)
    assert _match_expected_zeros(report(0.15005 + 0.252j, 0.1501 + 0.2521j), expected, 5e-4)


def test_zero_matching_tries_other_assignments():
    # the first expected zero is near both found zeros, the second only near the
    # first found zero: a greedy first choice would leave the second unmatched
    expected = [(0.0, 1.0), (0.0008, 1.0)]
    assert _match_expected_zeros(report(0.0004 + 1j, -0.0004 + 1j), expected, 5e-4)


def test_zero_matching_ignores_the_lower_half_plane_and_counts():
    expected = [(0.15, 0.252)]
    assert _match_expected_zeros(report(0.15 + 0.252j, 0.15 - 0.252j, 3 + 0j), expected, 5e-4)
    assert not _match_expected_zeros(report(0.15 + 0.252j, 0.9 + 0.5j), expected, 5e-4)
    assert not _match_expected_zeros(report(), expected, 5e-4)


def test_family_seconds_take_no_part_in_equality():
    assert FamilyResult("f", True, 3, "ok", 1.5) == FamilyResult("f", True, 3, "ok")
    assert FamilyResult("f", True, 3, "ok").seconds == 0.0


def test_route_table_evaluates_a_pair_again_only_for_a_longer_prefix():
    calls = []

    def route_set(pair, nmax):
        calls.append((pair, nmax))
        if pair == "bad":
            raise ValueError("no routes")
        return {"direct": list(range(nmax)), "other": [-n for n in range(nmax)]}

    table = partial(_read_routes, {})
    assert table(route_set, "a", nmax=2) == {"direct": [0, 1], "other": [0, -1]}
    assert table(route_set, "a", nmax=4)["direct"] == [0, 1, 2, 3]
    table(route_set, "a", nmax=3)["direct"].append("caller's own copy")
    assert table(route_set, "a", nmax=3) == {"direct": [0, 1, 2], "other": [0, -1, -2]}
    assert calls == [("a", 2), ("a", 4)]
    # a raising evaluation stores nothing, so the next reader raises as well
    for _ in range(2):
        with pytest.raises(ValueError, match="no routes"):
            table(route_set, "bad", nmax=1)
    assert calls[2:] == [("bad", 1), ("bad", 1)]


def test_sign_products_certify_classify_s_own_signs(monkeypatch):
    # the family reads the signs classify returns; one flipped sign fails it
    import czeta.verify
    from czeta.classify import ZeroClassification, classify
    from czeta.verify import _run_sign_products, _tally, load_grid

    flipped = []

    def flipping(params, nmax="auto"):
        result = classify(params, nmax)
        if flipped:
            return result
        signs = list(result.sign_sequence)
        signs[2] = -signs[2]
        flipped.append((params.L, params.eta, 2))
        return ZeroClassification(params, result.pair_count, tuple(signs), result.all_real)

    cfg = load_grid(quick=True)["sign_products"]
    _, bad, _ = _tally(_run_sign_products(cfg, partial(_read_routes, {})))
    assert not bad
    monkeypatch.setattr(czeta.verify, "classify", flipping)
    _, bad, _ = _tally(_run_sign_products(cfg, partial(_read_routes, {})))
    assert bad == flipped
