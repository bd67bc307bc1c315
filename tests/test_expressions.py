"""Expression grammar: parsing, precedence, domain errors."""

import warnings

import numpy as np
import pytest

from l1rec.errors import DomainError, ParseError
from l1rec.expressions import parse_expression


def ev(text, x):
    return parse_expression(text)(np.asarray(x, dtype=float))


class TestGrammar:
    def test_abs_shift(self):
        assert ev("abs(x-0.25)", [0.5]) == pytest.approx([0.25])

    def test_sqrt(self):
        assert ev("sqrt(1-x^2)", [0.0]) == pytest.approx([1.0])

    def test_exp_sin(self):
        assert ev("exp(x)*sin(10*x)", [0.0]) == pytest.approx([0.0])
        assert ev("exp(x)*sin(10*x)", [0.3]) == pytest.approx(
            [np.exp(0.3) * np.sin(3.0)]
        )

    def test_power_binds_tighter_than_times(self):
        assert ev("2*x^3", [2.0]) == pytest.approx([16.0])

    def test_left_associative_division(self):
        assert ev("8/4/2", [0.0]) == pytest.approx([1.0])

    def test_whitespace_insensitive(self):
        assert ev("  1 +  x *  2 ", [0.25]) == pytest.approx([1.5])

    def test_unary_minus(self):
        assert ev("-x^2", [2.0]) == pytest.approx([-4.0])
        assert ev("2*-3", [0.0]) == pytest.approx([-6.0])

    def test_sign(self):
        assert ev("sign(x)", [-0.5, 0.5]) == pytest.approx([-1.0, 1.0])

    def test_nested(self):
        assert ev("abs(sin(3*x))+cos(x)^2", [0.2]) == pytest.approx(
            [abs(np.sin(0.6)) + np.cos(0.2) ** 2]
        )

    def test_constant_broadcasts(self):
        out = ev("1.5", [0.0, 0.5, -0.5])
        assert out == pytest.approx([1.5, 1.5, 1.5])


class TestErrors:
    @pytest.mark.parametrize(
        "text", ["", "x +", "(x", "foo(x)", "x ^ 1.5", "x^-2", "x $ 2", "1 2"]
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError) as err:
            parse_expression(text)
        assert err.value.position >= 0

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            ev("sqrt(x-2)", [0.0])

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            ev("1/x", [0.0])

    @pytest.mark.parametrize("text", ["exp(1000*x)", "(1e200*x)^2", "sin(1e300*x*1e300)"])
    def test_overflow_is_a_domain_error_not_a_warning(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                ev(text, [1.0])


class TestKinkHints:
    def test_abs_argument_recorded(self):
        expr = parse_expression("abs(x-0.25)+abs(x+0.5)")
        assert len(expr.kink_args) == 2

    def test_catalog_breakpoint_discovery(self):
        from l1rec.catalog import funcrep_from_expression

        f = funcrep_from_expression("abs(x-0.25)")
        assert f.breakpoints == pytest.approx([0.25], abs=1e-10)
