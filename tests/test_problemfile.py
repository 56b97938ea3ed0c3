import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings

import orbitadm as oa
from orbitadm.pointwise import parse_rational_list
from orbitadm.problemfile import MAX_BASIS_NAMES

from conftest import (CORPUS_NAMES, dense_table, load_problem,
                      mutated_corpus_texts, problem_text_of, problem_texts)

H3_SOURCE = ("algebra h3\ndim 3\nbasis X Y Z\nbracket X Y = Z\n"
             "subalgebra Y; Z\nfunctional 0, 1\n")


def err(source: str) -> oa.ParseError:
    with pytest.raises(oa.ParseError) as info:
        oa.parse(source)
    return info.value


class TestParseValid:
    def test_h3_file(self):
        pf = oa.parse(H3_SOURCE)
        assert pf.name == "h3"
        assert pf.algebra.basis_names == ("X", "Y", "Z")
        assert dense_table(pf.algebra)[0][1][2] == 1
        assert dense_table(pf.algebra)[1][0][2] == -1
        assert pf.generator_terms == ({1: 1}, {2: 1})
        assert pf.functional_vals == (Fraction(0), Fraction(1))
        assert pf.config == {}

    def test_rational_functional_values(self):
        pf = oa.parse("algebra g\ndim 2\nbasis A X\nbracket A X = X\n"
                      "subalgebra A; X\nfunctional 1/2, 3\n")
        assert pf.functional_vals == (Fraction(1, 2), Fraction(3))

    def test_omitted_subalgebra_is_trivial(self):
        pf = oa.parse("algebra g\ndim 2\nbasis A B\n")
        assert pf.m == 0
        assert pf.generator_terms == ()
        assert pf.functional_vals == ()

    def test_omitted_functional_is_zero(self):
        pf = oa.parse("algebra g\ndim 2\nbasis A B\nsubalgebra A\n")
        assert pf.functional_vals == (Fraction(0),)

    def test_comments_and_blank_lines_ignored(self):
        pf = oa.parse("# leading note\n\nalgebra g   # trailing\n"
                      "\n  \ndim 1\nbasis T\n")
        assert pf.name == "g"
        assert pf.algebra.dim == 1

    def test_combination_terms(self):
        pf = oa.parse("algebra g\ndim 3\nbasis A X Y\n"
                      "bracket A X = X + -1 * Y\n"
                      "subalgebra 1/2 * X + Y\nfunctional 2\n")
        assert dense_table(pf.algebra)[0][1] == (Fraction(0), Fraction(1),
                                                 Fraction(-1))
        assert pf.generator_terms == ({1: Fraction(1, 2), 2: 1},)

    def test_repeated_term_coefficients_accumulate(self):
        pf = oa.parse("algebra g\ndim 2\nbasis A X\n"
                      "bracket A X = X + 2 * X\n")
        assert dense_table(pf.algebra)[0][1][1] == 3

    def test_config_block(self):
        pf = oa.parse("algebra g\ndim 1\nbasis T\nconfig seed 9\n"
                      "config trials 5\nconfig bound 100\n")
        assert pf.config == {"seed": 9, "trials": 5, "bound": 100}

    def test_negative_config_seed(self):
        pf = oa.parse("algebra g\ndim 1\nbasis T\nconfig seed -3\n")
        assert pf.config["seed"] == -3

    def test_widest_basis_parses_in_bounded_memory(self):
        # one bracket line on the widest basis allowed: the table holds one
        # nonzero pair, not MAX_BASIS_NAMES^3 zeros
        names = " ".join(f"Z{i}" for i in range(MAX_BASIS_NAMES))
        source = (f"algebra g\ndim {MAX_BASIS_NAMES}\nbasis {names}\n"
                  "bracket Z0 Z1 = Z2\n")
        tracemalloc.start()
        try:
            pf = oa.parse(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pf.algebra.dim == MAX_BASIS_NAMES
        assert peak < 2_000_000


class TestParseErrors:
    def test_self_bracket(self):
        e = err("algebra g\ndim 3\nbasis X Y Z\nbracket X X = Z\n")
        assert e.line == 4
        assert "identical generators" in e.message

    def test_duplicate_pair_names_first_line(self):
        e = err("algebra g\ndim 3\nbasis X Y Z\nbracket X Y = Z\n"
                "bracket Y X = Z\n")
        assert (e.line, e.col) == (5, 9)
        assert "first given on line 4" in str(e)

    def test_unknown_identifier_in_bracket(self):
        e = err("algebra g\ndim 2\nbasis A B\nbracket A W = B\n")
        assert (e.line, e.col) == (4, 11)
        assert "unknown basis name 'W'" in e.message

    def test_unknown_identifier_in_subalgebra(self):
        e = err("algebra g\ndim 2\nbasis A B\nsubalgebra Q\n")
        assert e.line == 4
        assert "unknown basis name 'Q'" in e.message

    def test_missing_equals_has_position(self):
        e = err("algebra g\ndim 2\nbasis A B\nbracket A B B\n")
        assert (e.line, e.col) == (4, 13)
        assert "expected '='" in e.message

    def test_truncated_line_reports_end_of_line(self):
        e = err("algebra g\ndim 2\nbasis A B\nbracket A B =\n")
        assert e.line == 4
        assert "end of line" in e.message

    def test_missing_header_reports_end_of_file(self):
        e = err("algebra g\ndim 2\n")
        assert "end of file" in e.message

    def test_wrong_basis_count(self):
        e = err("algebra g\ndim 3\nbasis A B\n")
        assert "2 names for dim 3" in e.message

    def test_duplicate_basis_name(self):
        e = err("algebra g\ndim 2\nbasis A A\n")
        assert (e.line, e.col) == (3, 9)
        assert "duplicate basis name 'A'" in e.message

    def test_basis_line_past_the_limit(self):
        names = " ".join(f"Z{i}" for i in range(MAX_BASIS_NAMES + 1))
        e = err(f"algebra g\ndim {MAX_BASIS_NAMES + 1}\n  basis {names}\n")
        assert (e.line, e.col) == (3, 3)
        assert f"at most {MAX_BASIS_NAMES}" in e.message

    def test_basis_line_at_the_limit_passes_the_guard(self):
        names = " ".join(f"Z{i}" for i in range(MAX_BASIS_NAMES))
        e = err(f"algebra g\ndim {MAX_BASIS_NAMES - 1}\nbasis {names}\n")
        assert f"{MAX_BASIS_NAMES} names for dim" in e.message

    def test_zero_dimension(self):
        e = err("algebra g\ndim 0\nbasis\n")
        assert "positive integer" in e.message

    def test_fractional_dimension(self):
        e = err("algebra g\ndim 3/2\nbasis A\n")
        assert "positive integer" in e.message

    def test_zero_denominator(self):
        e = err("algebra g\ndim 2\nbasis A X\nsubalgebra X\n"
                "functional 1/0\n")
        assert e.line == 5
        assert "denominator" in e.message

    def test_functional_before_subalgebra(self):
        e = err("algebra g\ndim 2\nbasis A B\nfunctional 1\n")
        assert "requires a subalgebra" in e.message

    def test_functional_count_mismatch(self):
        e = err("algebra g\ndim 3\nbasis X Y Z\nsubalgebra Y; Z\n"
                "functional 1\n")
        assert "1 values for 2 generators" in e.message

    def test_duplicate_subalgebra_block(self):
        e = err("algebra g\ndim 2\nbasis A B\nsubalgebra A\nsubalgebra B\n")
        assert "duplicate subalgebra" in e.message

    def test_duplicate_functional_block(self):
        e = err("algebra g\ndim 2\nbasis A B\nsubalgebra A\nfunctional 1\n"
                "functional 2\n")
        assert "duplicate functional" in e.message

    def test_bracket_after_subalgebra(self):
        e = err("algebra g\ndim 2\nbasis A B\nsubalgebra A\n"
                "bracket A B = B\n")
        assert "must precede" in e.message

    def test_unknown_statement(self):
        e = err("algebra g\ndim 1\nbasis T\nfrobnicate T\n")
        assert "'frobnicate'" in str(e)

    def test_unknown_config_key(self):
        e = err("algebra g\ndim 1\nbasis T\nconfig volume 11\n")
        assert "unknown config key 'volume'" in e.message
        assert "seed" in e.message  # lists the known keys

    def test_assume_exponential_is_no_longer_a_config_key(self):
        e = err("algebra g\ndim 1\nbasis T\n"
                "config assume_exponential true\n")
        assert (e.line, e.col) == (4, 8)
        assert "unknown config key 'assume_exponential'" in e.message

    @pytest.mark.parametrize("template, line, col", [
        ("algebra g\ndim {big}\nbasis T\n", 2, 5),
        ("algebra g\ndim 2\nbasis A X\nbracket A X = {big} * X\n", 4, 15),
        ("algebra g\ndim 2\nbasis A X\nbracket A X = 1/{big} * X\n", 4, 17),
        ("algebra g\ndim 2\nbasis A X\nsubalgebra X\nfunctional -{big}\n",
         5, 12),
        ("algebra g\ndim 1\nbasis T\nconfig seed {big}\n", 4, 13),
    ])
    def test_overlong_integer_literal_has_position(self, template, line,
                                                   col):
        # Python's int() refuses strings of more than 4300 digits
        e = err(template.format(big="7" * 5000))
        assert (e.line, e.col) == (line, col)
        assert "integer literal too long (5000 digits)" in e.message

    def test_duplicate_config_key(self):
        e = err("algebra g\ndim 1\nbasis T\nconfig seed 1\nconfig seed 2\n")
        assert "duplicate config key" in e.message

    def test_symbolic_is_no_longer_a_config_key(self):
        e = err("algebra g\ndim 1\nbasis T\nconfig symbolic true\n")
        assert (e.line, e.col) == (4, 8)
        assert "unknown config key 'symbolic'" in e.message

    def test_config_int_rejects_word(self):
        e = err("algebra g\ndim 1\nbasis T\nconfig trials many\n")
        assert "expected an integer" in e.message

    def test_unexpected_character(self):
        e = err("algebra g\ndim 1\nbasis T\nsubalgebra T @ T\n")
        assert "unexpected character '@'" in e.message

    @pytest.mark.parametrize("brk", ["\v", "\f", "\x1c", "\x1d", "\x1e",
                                     "\x85", "\u2028", "\u2029"])
    def test_only_lf_cr_lf_and_cr_end_a_line(self, brk):
        # str.splitlines breaks at these too, which shifted every later
        # line number and let two statements share a physical line
        e = err(f"algebra g{brk}\ndim 1\nbasis T U\n")
        assert (e.line, e.col) == (1, 10)
        assert e.message == f"unexpected character {brk!r}"
        e = err(f"algebra g\ndim 1{brk}basis T\n")
        assert (e.line, e.col) == (2, 6)
        e = err(f"# a comment{brk}\nalgebra g\ndim 1\nbasis T U\n")
        assert (e.line, e.col) == (4, 1)
        assert e.message == "basis lists 2 names for dim 1"

    def test_cr_lf_and_cr_end_a_line(self):
        e = err("algebra g\r\ndim 1\rbasis T U\n")
        assert (e.line, e.col) == (3, 1)
        pf = oa.parse(H3_SOURCE.replace("\n", "\r\n"))
        assert pf == oa.parse(H3_SOURCE) == oa.parse(
            H3_SOURCE.replace("\n", "\r"))

    @pytest.mark.parametrize("source, col", [
        ("dim \u0663", 5),                 # ARABIC-INDIC DIGIT THREE
        ("dim \uff13", 5),                 # FULLWIDTH DIGIT THREE
        ("dim 1\u0660", 6),
    ])
    def test_integers_are_ascii_digits(self, source, col):
        e = err(f"algebra g\n{source}\nbasis T\n")
        assert (e.line, e.col) == (2, col)

    def test_coefficients_are_ascii_digits(self):
        e = err("algebra g\ndim 1\nbasis T\nsubalgebra \uff12 * T\n")
        assert (e.line, e.col) == (4, 12)
        e = err("algebra g\ndim 1\nbasis T\nsubalgebra T\n"
                "functional 1/\u0662\n")
        assert (e.line, e.col, e.message) \
            == (5, 13, "unexpected character '/'")

    def test_error_string_carries_position(self):
        e = err("algebra g\ndim 2\nbasis A B\nbracket A W = B\n")
        assert str(e).startswith("line 4, column 11: ")


class TestEquality:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_rewritten_reads_equal(self, name):
        pf = load_problem(name)
        text = problem_text_of(pf.name, pf.algebra, pf.generator_terms,
                               pf.functional_vals, pf.config)
        assert oa.parse(text) == pf

    def test_equality_reads_the_config_and_the_terms(self):
        pf = oa.parse("algebra g\ndim 2\nbasis A X\nbracket A X = X\n"
                      "subalgebra X + A + -1 * A\nfunctional 1\n"
                      "config seed 4\n")

        def made(terms, config):
            return oa.ProblemFile(name="g", algebra=pf.algebra,
                                  generator_terms=terms,
                                  functional_vals=pf.functional_vals,
                                  config=config)

        # the parser keeps the cancelled A as a 0 term
        assert made(({1: 1, 0: 0},), {"seed": 4}) == pf
        assert made(({1: 1},), {"seed": 4}) != pf
        assert made(({1: 1, 0: 0},), {"seed": 5}) != pf
        assert made(({1: 1, 0: 0},), {}) != pf


@settings(max_examples=80, deadline=None, database=None)
@given(case=problem_texts())
def test_parse_inverts_problem_text_in_random_bases(case):
    pf, text = case
    assert oa.parse(text) == pf


@settings(max_examples=300, deadline=None, database=None)
@given(text=mutated_corpus_texts())
def test_mutated_corpus_texts_fail_only_with_parse_errors(text):
    try:
        oa.parse(text)
    except oa.ParseError:
        pass


class TestParseRationalList:
    def test_plain(self):
        assert parse_rational_list("1,-2/3,0") == (Fraction(1),
                                                   Fraction(-2, 3),
                                                   Fraction(0))

    def test_spaces_allowed(self):
        assert parse_rational_list(" 5 , 1/2 ") == (Fraction(5),
                                                    Fraction(1, 2))

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational_list("1,two")

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            parse_rational_list("1/0")

    def test_rejects_overlong_literal(self):
        with pytest.raises(ValueError, match="too long"):
            parse_rational_list("1," + "9" * 5000)

    def test_rejects_empty_piece(self):
        with pytest.raises(ValueError):
            parse_rational_list("1,,2")

    @pytest.mark.parametrize("text", ["\u0661/\u0662", "\uff12", "1,\u0663",
                                      "1/\u0663", "-\u0967"])
    def test_rejects_digits_outside_ascii(self, text):
        with pytest.raises(ValueError, match="not a rational"):
            parse_rational_list(text)
