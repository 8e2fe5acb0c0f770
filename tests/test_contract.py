"""The refusal contract of the public surface: every callable in `czeta.__all__`,
called at its required arity with values from one fixed junk list, either
returns or raises a `czeta.errors` type, never a bare exception.

A new refusal belongs here as a row of JUNK, not as a special case in a module.
A callable of at most three required arguments meets every combination of the list;
one of four or more, a derandomized hypothesis sample of them.
"""

import inspect
import itertools
import math
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import czeta
from czeta import errors

ERRORS = tuple(value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, Exception)
               and value.__module__ == errors.__name__)

JUNK = [
    None, "x", "1/2", True, 1.5, math.nan, math.inf, 2j, [1], (), F(1, 3), -1, 0, 2, 3,
    czeta.CoulombParams(0, 1), czeta.ExactMatrix([[1, 2], [3, 4]]), {}, b"1",
    # numbers spelled as text, which only the exact layer reads, and rows of text
    "-0.75", b"-0.75", ["12", "34"], [b"12", b"34"],
    # a number float() reads that float arithmetic does not take
    Decimal("-0.75"),
]


def _arity(call) -> int:
    """The number of arguments `call` requires."""
    return sum(p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
               for p in inspect.signature(call).parameters.values())


CALLABLES = {name: getattr(czeta, name) for name in czeta.__all__}
SMALL = sorted(name for name, call in CALLABLES.items() if _arity(call) <= 3)
LARGE = sorted(name for name, call in CALLABLES.items() if _arity(call) > 3)


def _holds(name, args) -> None:
    try:
        CALLABLES[name](*args)
    except ERRORS:
        pass
    except Exception as exc:  # the contract is the type
        pytest.fail(f"{name}{args!r} raised {type(exc).__name__}: {exc}")


@pytest.mark.parametrize("name", SMALL)
def test_every_combination_returns_or_raises_a_czeta_error(name):
    for args in itertools.product(JUNK, repeat=_arity(CALLABLES[name])):
        _holds(name, args)


@pytest.mark.parametrize("name", LARGE)
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_sampled_arguments_return_or_raise_a_czeta_error(name, data):
    _holds(name, data.draw(st.tuples(*[st.sampled_from(JUNK)] * _arity(CALLABLES[name]))))
