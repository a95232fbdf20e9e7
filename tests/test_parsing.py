"""Tests for the polynomial grammar and the instance file reader."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycover.parsing import (
    InstanceFileError,
    ParseError,
    _kind,
    _position,
    _tokenize,
    parse_instance_file,
    parse_polynomial,
)
from cycover.poly import QQ, Polynomial, PrimeField, random_homogeneous, ring_over
from cycover.seeds import derive_seed
from helpers import default_instance_text
from oracles import tokenize_by_characters


@pytest.fixture(scope="module")
def ring():
    return ring_over(("x0", "x1", "x2"), QQ)


class TestGrammar:
    def test_coefficient_power_product(self, ring):
        p = parse_polynomial("3/2*x0^2*x1 - x2^3", ring)
        x0, x1, x2 = ring.gens()
        assert p == ring.const(Fraction(3, 2)) * x0**2 * x1 - x2**3
        assert p.text() == "3/2*x0^2*x1 - x2^3"

    def test_like_terms_collect(self, ring):
        assert parse_polynomial("x0 + x0", ring).text() == "2*x0"

    def test_whitespace_is_insignificant(self, ring):
        reference = parse_polynomial("3/2*x0^2*x1 - x2^3", ring)
        spaced = parse_polynomial("  3/2 * x0 ^ 2\n\t* x1-x2^3 ", ring)
        assert spaced == reference

    def test_parentheses(self, ring):
        x0, x1, _ = ring.gens()
        assert parse_polynomial("(x0 + x1) * (x0 - x1)", ring) == x0**2 - x1**2
        assert parse_polynomial("((x0))", ring) == x0

    def test_leading_negative_rational_factor(self, ring):
        x0, x1, _ = ring.gens()
        p = parse_polynomial("-3/2*x0 - x1", ring)
        assert p == ring.const(Fraction(-3, 2)) * x0 - x1
        assert parse_polynomial(p.text(), ring) == p

    def test_negative_factor_after_star(self, ring):
        x0 = ring.gen(0)
        assert parse_polynomial("x0 * -2", ring) == ring.const(-2) * x0

    def test_constant_and_zero(self, ring):
        assert parse_polynomial("7/3", ring) == ring.const(Fraction(7, 3))
        assert parse_polynomial("0", ring).is_zero()

    def test_exponent_zero_is_one(self, ring):
        assert parse_polynomial("x0^0", ring) == ring.one()

    def test_prime_field_coefficients(self):
        gf = ring_over(("x0", "x1"), PrimeField(13))
        p = parse_polynomial("1/2*x0 + 20*x1", gf)
        # 1/2 = 7 mod 13, 20 = 7 mod 13
        assert p == gf.const(7) * gf.gen(0) + gf.const(7) * gf.gen(1)


@pytest.mark.parametrize("n", [200, 400])
def test_sum_parses_in_linear_work(n, monkeypatch):
    # Counts the terms handed to every Polynomial constructor while parsing
    # an n-term sum: the parser builds one polynomial, from its n terms;
    # rebuilding the running sum per term costs about n^2/2.
    built = [0]
    original = Polynomial.__init__

    def counting_init(self, ring, terms):
        built[0] += len(terms)
        original(self, ring, terms)

    monkeypatch.setattr(Polynomial, "__init__", counting_init)
    ring = ring_over(("x", "y"), QQ)
    monomials = [f"x^{i}*y^{j}" for i in range(20) for j in range(20)][:n]
    text = " + ".join(monomials[::2]) + " - " + " - ".join(monomials[1::2])
    assert len(parse_polynomial(text, ring)) == n
    assert built[0] == n


class TestGrammarErrors:
    def test_missing_exponent_points_at_the_gap(self, ring):
        with pytest.raises(ParseError) as exc:
            parse_polynomial("x0^", ring)
        assert exc.value.line == 1
        assert exc.value.column == 4
        assert "exponent" in str(exc.value)

    def test_implicit_multiplication_rejected(self, ring):
        for bad in ("2x0", "x0 x1", "(x0 + x1)(x0 - x1)", "2(x0)"):
            with pytest.raises(ParseError) as exc:
                parse_polynomial(bad, ring)
            assert "explicit" in str(exc.value)

    def test_unknown_variable_named(self, ring):
        with pytest.raises(ParseError, match="unknown variable 'w'"):
            parse_polynomial("x0 + w", ring)

    def test_zero_denominator(self, ring):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_polynomial("1/0", ring)

    def test_dangling_operator(self, ring):
        with pytest.raises(ParseError) as exc:
            parse_polynomial("x0 + ", ring)
        assert exc.value.column == 6

    def test_unclosed_parenthesis(self, ring):
        with pytest.raises(ParseError, match="expected '\\)'"):
            parse_polynomial("(x0 + x1", ring)

    def test_unexpected_character(self, ring):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_polynomial("x0 @ x1", ring)

    def test_empty_input(self, ring):
        with pytest.raises(ParseError):
            parse_polynomial("   ", ring)

    def test_error_position_tracks_lines(self, ring):
        with pytest.raises(ParseError) as exc:
            parse_polynomial("x0 +\n x1^", ring)
        assert exc.value.line == 2
        assert exc.value.column == 5

    def test_negative_exponent_rejected(self, ring):
        with pytest.raises(ParseError, match="exponent"):
            parse_polynomial("x0^-2", ring)

    @pytest.mark.parametrize(
        "text, digit, column",
        [("x0^²", "²", 4), ("x0^٣ + ١", "٣", 4), ("x0 + ١", "١", 6), ("2١*x0", "١", 2)],
    )
    def test_numbers_take_ascii_digits_only(self, ring, text, digit, column):
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text, ring)
        assert str(exc.value) == (
            f"syntax error at line 1, column {column}: unexpected character {digit!r}"
        )

    def test_undeclared_non_ascii_name_is_unknown(self, ring):
        for name in ("é", "x0²", "Ω_1"):
            with pytest.raises(ParseError, match=f"unknown variable {name!r}") as exc:
                parse_polynomial(f"x1 + {name}", ring)
            assert (exc.value.line, exc.value.column) == (1, 6)

    def test_declared_non_ascii_name_parses(self):
        ring = ring_over(("é", "x²"), QQ)
        assert parse_polynomial("é^2*x² - x²", ring).text() == "é^2*x² - x²"


# The fuzz alphabet of the tokenizer tests: ASCII digits and letters, '_',
# the operators, whitespace, '#' (a comment only in instance files), and
# letters and digits outside ASCII.
NON_ASCII_DIGITS = "²٣१"
TOKEN_ALPHABET = "0123456789abxyzXY_+-*/^() \t\n#éΩß" + NON_ASCII_DIGITS


def _scan(tokenize, text):
    """(kind, text, line, column) per token, or the ParseError's reason,
    line and column."""
    try:
        return [tuple(token) for token in tokenize(text)]
    except ParseError as error:
        return (error.reason, error.line, error.column)


def _regex_tokens(text):
    tokens = _tokenize(text)
    return [(_kind(t), t, *_position(text, k)) for k, t in enumerate(tokens)]


def _loop_tokens(text):
    return [(t.kind, t.text, t.line, t.column) for t in tokenize_by_characters(text)]


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=TOKEN_ALPHABET, max_size=40))
def test_regex_tokenizer_matches_character_loop(text):
    new, old = _scan(_regex_tokens, text), _scan(_loop_tokens, text)
    if new == old:
        return
    # The one difference by design: numbers take ASCII digits only.  Where
    # the character loop read a digit outside ASCII into a number, the scan
    # stops at that digit.
    assert any(digit in text for digit in NON_ASCII_DIGITS)
    reason, line, column = new
    digit = text.split("\n")[line - 1][column - 1]
    assert digit in NON_ASCII_DIGITS
    assert reason == f"unexpected character {digit!r}"


class TestRoundTrip:
    def test_random_forms_round_trip_exactly(self):
        for seed in range(60):
            nvars = 2 + seed % 3
            names = tuple(f"x{i}" for i in range(nvars))
            domain = QQ if seed % 2 == 0 else PrimeField(1000003)
            ring = ring_over(names, domain)
            degree = 1 + seed % 4
            p = random_homogeneous(ring, degree, derive_seed(99, trial=seed))
            assert parse_polynomial(p.text(), ring) == p

    def test_sums_of_forms_round_trip(self):
        ring = ring_over(("x0", "x1", "x2", "x3"), QQ)
        for seed in range(20):
            p = random_homogeneous(ring, 1, derive_seed(7, trial=seed))
            q = random_homogeneous(ring, 3, derive_seed(8, trial=seed))
            total = p + q - ring.const(Fraction(seed, 7))
            assert parse_polynomial(total.text(), ring) == total

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.fractions(
                    min_value=-99, max_value=99, max_denominator=12
                ),
                st.lists(
                    st.integers(min_value=0, max_value=5),
                    min_size=3,
                    max_size=3,
                ),
            ),
            min_size=0,
            max_size=8,
        )
    )
    def test_arbitrary_term_combinations_round_trip(self, term_data):
        ring = ring_over(("x0", "x1", "x2"), QQ)
        total = ring.zero()
        for coefficient, exponents in term_data:
            total = total + ring.monomial(exponents, coefficient)
        assert parse_polynomial(total.text(), ring) == total


WORKHORSE_FILE = """\
# sample instance for the degree-8 family
M = 5
m = 4
l = 2
K = 2
prime = 1000003
seed = 11
f = x0^3*x1 + x1^4 - x2^4
    + x3^4 + x4^4 + x5^4 + x6^4   # continuation line
g = x0^4 + x1^4 + x2^4
"""


class TestInstanceFile:
    def test_full_file(self):
        doc = parse_instance_file(WORKHORSE_FILE)
        assert (
            doc.family.dimension,
            doc.family.base_degree,
            doc.family.branch_weight,
            doc.family.cover_degree,
        ) == (5, 4, 2, 2)
        assert doc.prime == 1000003
        assert doc.seed == 11
        assert doc.variables == tuple(f"x{i}" for i in range(7))
        assert isinstance(doc.instance.domain, PrimeField)
        # the continuation line was folded into f
        assert len(doc.instance.base_form.terms) == 7

    def test_rational_instance_without_prime(self):
        text = WORKHORSE_FILE.replace("prime = 1000003\n", "")
        doc = parse_instance_file(text)
        assert doc.prime is None
        assert doc.instance.domain == QQ

    def test_custom_variable_names(self):
        text = WORKHORSE_FILE.replace(
            "seed = 11\n", "seed = 11\nvars = a b c d e u v\n"
        )
        text = text.replace("x0", "a").replace("x1", "b").replace("x2", "c")
        text = text.replace("x3", "d").replace("x4", "e")
        text = text.replace("x5", "u").replace("x6", "v")
        doc = parse_instance_file(text)
        assert doc.variables == ("a", "b", "c", "d", "e", "u", "v")

    def test_wrong_variable_count(self):
        text = WORKHORSE_FILE.replace("seed = 11\n", "vars = a b c\n")
        with pytest.raises(InstanceFileError, match="7 variable names"):
            parse_instance_file(text)

    def test_both_branch_styles_rejected(self):
        # 'g1'..'gK' coefficient-form keys are not part of the format.
        text = WORKHORSE_FILE + "g2 = x0^4\n"
        with pytest.raises(InstanceFileError, match="unknown key 'g2'") as err:
            parse_instance_file(text)
        assert err.value.line == 11

    def test_missing_branch_form(self):
        text = WORKHORSE_FILE.replace("g = x0^4 + x1^4 + x2^4\n", "")
        with pytest.raises(InstanceFileError, match="missing key 'g'"):
            parse_instance_file(text)

    def test_missing_family_parameter(self):
        text = WORKHORSE_FILE.replace("K = 2\n", "")
        with pytest.raises(InstanceFileError, match="missing required key 'K'"):
            parse_instance_file(text)

    def test_unknown_key_with_line_number(self):
        text = WORKHORSE_FILE + "foo = 1\n"
        with pytest.raises(InstanceFileError, match="unknown key 'foo'"):
            parse_instance_file(text)

    def test_duplicate_key(self):
        text = WORKHORSE_FILE + "m = 4\n"
        with pytest.raises(InstanceFileError, match="duplicate key 'm'"):
            parse_instance_file(text)

    def test_bad_integer_value(self):
        text = WORKHORSE_FILE.replace("m = 4", "m = four")
        with pytest.raises(InstanceFileError, match="needs an integer"):
            parse_instance_file(text)

    def test_family_relation_violation_reported(self):
        text = WORKHORSE_FILE.replace("K = 2", "K = 3")
        with pytest.raises(InstanceFileError, match="differs from dimension"):
            parse_instance_file(text)

    def test_wrong_form_degree_reported(self):
        text = WORKHORSE_FILE.replace(
            "g = x0^4 + x1^4 + x2^4", "g = x0^3 + x1^3"
        )
        with pytest.raises(InstanceFileError, match="degree"):
            parse_instance_file(text)

    def test_polynomial_error_carries_file_line(self):
        text = WORKHORSE_FILE.replace(
            "g = x0^4 + x1^4 + x2^4", "g = x0^4 + + x1^4 + x2^4"
        )
        with pytest.raises(InstanceFileError) as exc:
            parse_instance_file(text)
        assert exc.value.line == 10

    def test_content_before_first_key(self):
        with pytest.raises(InstanceFileError, match="before the first"):
            parse_instance_file("x0^2\nM = 5\n")

    def test_nonprime_modulus_rejected(self):
        text = WORKHORSE_FILE.replace("prime = 1000003", "prime = 1000000")
        with pytest.raises(InstanceFileError, match="not prime"):
            parse_instance_file(text)

    def test_render_parse_round_trip(self):
        doc = parse_instance_file(WORKHORSE_FILE)
        rendered = default_instance_text(doc.instance, seed=doc.seed)
        again = parse_instance_file(rendered)
        assert again.instance.base_form == doc.instance.base_form
        assert again.instance.branch_form == doc.instance.branch_form
        assert again.seed == doc.seed
        assert again.prime == doc.prime
