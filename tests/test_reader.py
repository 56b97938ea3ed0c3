"""The one-pass problem-file reader against the token-by-token parser.

``problemfile.parse`` scans each line into its token texts with one regex
``findall``, reads them by index, works out a column only for an error,
and fills the constants by basis index for ``from_constants``.  The
reference below is the parser it replaced, kept here as it was: a
``Token`` per token with its column, a cursor per line, and the bracket
lines collected by name for ``from_brackets``.  Valid texts (the corpus,
every fixture, random-basis problems, any line ends, comments and blanks)
must give equal ``ProblemFile``s; mutated corpus texts must give the same
outcome, an equal ``ProblemFile`` or the same (line, column, message);
and ``parse_rational_list`` the same values or the same message.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitadm as oa
from orbitadm.algebra import dense_vector, from_brackets
from orbitadm.pointwise import parse_rational_list
from orbitadm.problemfile import (CONFIG_KEYS, MAX_BASIS_NAMES, ParseError,
                                  ProblemFile)

from conftest import (CORPUS_TEXTS, FUZZ_CHARS, FUZZ_LITERALS,
                      mutated_corpus_texts, problem_texts)

# --- the reference: one Token per token, one cursor per line ---------------

_TOKEN_RE = re.compile(r"""
    (?P<RATIONAL>-?[0-9]+(?:/[0-9]+)?)
  | (?P<ID>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<PUNCT>[*+;,=])
  | (?P<SPACE>[ \t]+)
  | (?P<BAD>.)
""", re.VERBOSE)

_LINE_BREAK = re.compile(r"\r\n|\r|\n")


@dataclass(frozen=True)
class Token:
    kind: str   # RATIONAL | ID | PUNCT | EOL
    text: str
    line: int
    col: int


def _tokenize_line(text: str, lineno: int) -> list[Token]:
    body = text.split("#", 1)[0]
    out = []
    for match in _TOKEN_RE.finditer(body):
        kind = match.lastgroup
        if kind == "SPACE":
            continue
        col = match.start() + 1
        if kind == "BAD":
            raise ParseError(lineno, col,
                             f"unexpected character {match.group()!r}")
        out.append(Token(kind, match.group(), lineno, col))
    return out


class _Line:
    """Cursor over one line's tokens with expectation-style errors."""

    def __init__(self, tokens: list[Token], lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _end_col(self) -> int:
        if self.tokens:
            last = self.tokens[-1]
            return last.col + len(last.text)
        return 1

    def take(self, kind: str, expected: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(self.lineno, self._end_col(),
                             f"expected {expected}, found end of line")
        if tok.kind != kind or (text is not None and tok.text != text):
            raise ParseError(tok.line, tok.col,
                             f"expected {expected}, found {tok.text!r}")
        self.pos += 1
        return tok

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(tok.line, tok.col,
                             f"expected end of line, found {tok.text!r}")


def _int(text: str, line: int, col: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(line, col, f"integer literal too long "
                         f"({len(text.lstrip('-'))} digits)") from None


def _rational(tok: Token) -> int | Fraction:
    if "/" in tok.text:
        num, den = tok.text.split("/")
        den_col = tok.col + len(num) + 1
        if _int(den, tok.line, den_col) == 0:
            raise ParseError(tok.line, den_col,
                             "denominator must be a positive integer")
        return Fraction(_int(num, tok.line, tok.col),
                        _int(den, tok.line, den_col))
    return _int(tok.text, tok.line, tok.col)


def _term(line: _Line, names: dict[str, int]) -> tuple[int, int | Fraction]:
    tok = line.peek()
    if tok is not None and tok.kind == "RATIONAL":
        line.take("RATIONAL", "a rational coefficient")
        coeff = _rational(tok)
        line.take("PUNCT", "'*'", "*")
        ident = line.take("ID", "a basis name")
    else:
        ident = line.take("ID", "a term (coefficient * name, or a name)")
        coeff = 1
    if ident.text not in names:
        raise ParseError(ident.line, ident.col,
                         f"unknown basis name {ident.text!r}")
    return names[ident.text], coeff


def _term_sum(line: _Line,
              names: dict[str, int]) -> list[tuple[int, int | Fraction]]:
    terms: dict[int, int | Fraction] = {}
    while True:
        idx, coeff = _term(line, names)
        terms[idx] = terms.get(idx, 0) + coeff
        tok = line.peek()
        if tok is None or tok.text != "+":
            return list(terms.items())
        line.take("PUNCT", "'+'", "+")


def _config_value(tok: Token) -> int:
    if tok.kind != "RATIONAL" or "/" in tok.text:
        raise ParseError(tok.line, tok.col,
                         f"expected an integer, found {tok.text!r}")
    return _int(tok.text, tok.line, tok.col)


def reference_parse(source: str) -> ProblemFile:
    lines = []
    for lineno, raw in enumerate(_LINE_BREAK.split(source), start=1):
        toks = _tokenize_line(raw, lineno)
        if toks:
            lines.append(_Line(toks, lineno))
    cursor = 0

    def next_line(expected: str) -> _Line:
        nonlocal cursor
        if cursor >= len(lines):
            lastno = lines[-1].lineno if lines else 1
            raise ParseError(lastno, 1, f"expected {expected}, "
                             "found end of file")
        line = lines[cursor]
        cursor += 1
        return line

    line = next_line("'algebra'")
    line.take("ID", "'algebra'", "algebra")
    name = line.take("ID", "an algebra name").text
    line.done()

    line = next_line("'dim'")
    line.take("ID", "'dim'", "dim")
    dim_tok = line.take("RATIONAL", "a positive integer dimension")
    line.done()
    n = 0 if "/" in dim_tok.text else _int(dim_tok.text, dim_tok.line,
                                            dim_tok.col)
    if n < 1:
        raise ParseError(dim_tok.line, dim_tok.col,
                         "dimension must be a positive integer")

    line = next_line("'basis'")
    basis_tok = line.take("ID", "'basis'", "basis")
    if len(line.tokens) - 1 > MAX_BASIS_NAMES:
        raise ParseError(basis_tok.line, basis_tok.col,
                         f"basis lists {len(line.tokens) - 1} names; at most "
                         f"{MAX_BASIS_NAMES} are supported")
    basis: list[str] = []
    while line.peek() is not None:
        tok = line.take("ID", "a basis name")
        if tok.text in basis:
            raise ParseError(tok.line, tok.col,
                             f"duplicate basis name {tok.text!r}")
        basis.append(tok.text)
    if len(basis) != n:
        raise ParseError(line.lineno, 1,
                         f"basis lists {len(basis)} names for dim {n}")
    names = {nm: i for i, nm in enumerate(basis)}

    brackets: dict[tuple[str, str], dict[str, int | Fraction]] = {}
    seen_pairs: dict[frozenset, int] = {}
    sub_rows = None
    functional = None
    config: dict = {}

    while cursor < len(lines):
        line = next_line("a statement")
        head = line.take(
            "ID", "'bracket', 'subalgebra', 'functional' or 'config'")
        if head.text == "bracket":
            if sub_rows is not None or functional is not None:
                raise ParseError(head.line, head.col,
                                 "bracket lines must precede the "
                                 "subalgebra and functional blocks")
            a = line.take("ID", "a basis name")
            b = line.take("ID", "a basis name")
            for tok in (a, b):
                if tok.text not in names:
                    raise ParseError(tok.line, tok.col,
                                     f"unknown basis name {tok.text!r}")
            if a.text == b.text:
                raise ParseError(b.line, b.col,
                                 "bracket of identical generators must be "
                                 "omitted (it is zero by antisymmetry)")
            key = frozenset((a.text, b.text))
            if key in seen_pairs:
                raise ParseError(a.line, a.col,
                                 f"duplicate bracket for pair "
                                 f"({a.text}, {b.text}); first given on "
                                 f"line {seen_pairs[key]}")
            seen_pairs[key] = a.line
            line.take("PUNCT", "'='", "=")
            combo = {basis[k]: q for k, q in _term_sum(line, names)}
            line.done()
            brackets[a.text, b.text] = combo
        elif head.text == "subalgebra":
            if sub_rows is not None:
                raise ParseError(head.line, head.col,
                                 "duplicate subalgebra block")
            if functional is not None:
                raise ParseError(head.line, head.col,
                                 "subalgebra must precede the functional")
            sub_rows = [dense_vector(_term_sum(line, names), n)]
            while line.peek() is not None:
                line.take("PUNCT", "';'", ";")
                sub_rows.append(dense_vector(_term_sum(line, names), n))
            line.done()
        elif head.text == "functional":
            if functional is not None:
                raise ParseError(head.line, head.col,
                                 "duplicate functional block")
            if sub_rows is None:
                raise ParseError(head.line, head.col,
                                 "functional requires a subalgebra block")
            vals = [Fraction(_rational(line.take("RATIONAL",
                                                 "a rational value")))]
            while line.peek() is not None:
                line.take("PUNCT", "','", ",")
                vals.append(Fraction(_rational(line.take(
                    "RATIONAL", "a rational value"))))
            line.done()
            functional = (tuple(vals), head)
        elif head.text == "config":
            key_tok = line.take("ID", "a config key")
            if key_tok.text not in CONFIG_KEYS:
                known = ", ".join(sorted(CONFIG_KEYS))
                raise ParseError(key_tok.line, key_tok.col,
                                 f"unknown config key {key_tok.text!r} "
                                 f"(known: {known})")
            if key_tok.text in config:
                raise ParseError(key_tok.line, key_tok.col,
                                 f"duplicate config key {key_tok.text!r}")
            val_tok = line.peek()
            if val_tok is None:
                raise ParseError(line.lineno, line._end_col(),
                                 "expected a config value, found end of line")
            line.pos += 1
            line.done()
            config[key_tok.text] = _config_value(val_tok)
        else:
            raise ParseError(head.line, head.col,
                             "expected 'bracket', 'subalgebra', 'functional' "
                             f"or 'config', found {head.text!r}")

    rows = tuple(sub_rows or ())
    if functional is not None:
        vals, head = functional
        if len(vals) != len(rows):
            raise ParseError(head.line, head.col,
                             f"functional has {len(vals)} values for "
                             f"{len(rows)} generators")
        f_vals = vals
    else:
        f_vals = (Fraction(0),) * len(rows)

    algebra = from_brackets(name, basis, brackets)
    return ProblemFile(name=name, algebra=algebra, subalgebra_rows=rows,
                       functional_vals=f_vals, config=config)


def reference_rational_list(text: str) -> tuple[Fraction, ...]:
    if not text.strip():
        return ()
    out = []
    for piece in (item.strip() for item in text.split(",")):
        match = _TOKEN_RE.fullmatch(piece)
        if match is None or match.lastgroup != "RATIONAL":
            raise ValueError(f"not a rational: {piece!r}")
        try:
            out.append(Fraction(_rational(Token("RATIONAL", piece, 1, 1))))
        except ParseError as exc:
            raise ValueError(exc.message) from None
    return tuple(out)


# --- the comparisons ----------------------------------------------------------

FIXTURE_TEXTS = [path.read_text() for path in sorted(
    (Path(__file__).parent / "fixtures").glob("**/*.alg"))]


def outcome(parse, text):
    """What ``parse`` makes of ``text``: the ProblemFile, or the refusal's
    (line, column, message)."""
    try:
        return parse(text)
    except ParseError as exc:
        return exc.line, exc.col, exc.message


def rational_outcome(read, text):
    try:
        return read(text)
    except ValueError as exc:
        return str(exc)


comment_text = st.text(st.characters(blacklist_characters="\r\n"),
                       max_size=8)


@st.composite
def valid_texts(draw):
    """A corpus, fixture or random-basis problem text with its lines ended
    by LF, CR LF or CR, and comments, blank lines and blanks added."""
    if draw(st.booleans()):
        text = draw(st.sampled_from(CORPUS_TEXTS + FIXTURE_TEXTS))
    else:
        text = draw(problem_texts())[1]
    lines = []
    for line in text.splitlines():
        if draw(st.booleans()):
            line = line.replace(" ", draw(st.sampled_from([" \t", "  "])))
        if draw(st.booleans()):
            line = (draw(st.sampled_from(["", " ", "\t"])) + line
                    + draw(st.sampled_from(["", " "])) + "#"
                    + draw(comment_text))
        lines.append(line)
        if draw(st.integers(0, 4)) == 0:
            blank = draw(st.sampled_from(["", " \t"]))
            if draw(st.booleans()):
                blank += "#" + draw(comment_text)
            lines.append(blank)
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


@settings(max_examples=150, deadline=None, database=None)
@given(text=valid_texts())
def test_valid_texts_read_as_the_reference_reads_them(text):
    pf = oa.parse(text)
    assert pf == reference_parse(text)


@settings(max_examples=400, deadline=None, database=None)
@given(text=mutated_corpus_texts())
def test_mutated_texts_fail_as_the_reference_fails(text):
    assert outcome(oa.parse, text) == outcome(reference_parse, text)


rational_pieces = st.one_of(
    st.text(st.sampled_from(FUZZ_CHARS + " "), max_size=6),
    st.sampled_from(FUZZ_LITERALS + ["1/" + FUZZ_LITERALS[0],
                                     FUZZ_LITERALS[1] + "/3"]),
    st.builds("{}/{}".format, st.integers(-20, 20), st.integers(0, 9)))


@settings(max_examples=300, deadline=None, database=None)
@given(pieces=st.lists(rational_pieces, min_size=1, max_size=4))
def test_rational_lists_read_as_the_reference_reads_them(pieces):
    text = ",".join(pieces)
    assert rational_outcome(parse_rational_list, text) \
        == rational_outcome(reference_rational_list, text)


HEAD = "algebra g\ndim 2\nbasis A X\nbracket A X = X\nsubalgebra X\n"


@pytest.mark.parametrize("text", [
    "", "# only a comment\n", "algebra\n", "algebra g h\n", "algebra g\n",
    "algebra g\ndim\n", "algebra g\ndim 1/0\n", "algebra g\ndim -2 3\n",
    "﻿algebra g\n", "algebra g\r\ndim 2\r\nbasis A\t\tX Y\r\n",
    "algebra g\ndim 2\nbasis A 1\n", "algebra g\ndim 2\n\tbasis A\n",
    HEAD + "functional 1, 2\n", HEAD + "functional 1,\n",
    HEAD + "functional 1 2\n", HEAD + "functional 1/0\n",
    HEAD + "functional 7/" + "9" * 4301 + "\n",
    HEAD + "functional " + "9" * 4301 + "/0\n",
    HEAD + "config\n", HEAD + "config seed\n", HEAD + "config seed 1 2\n",
    HEAD + "config seed 1/2\n", HEAD + "config seed x\n",
    HEAD + "config seed 1\nconfig seed 2\n", HEAD + "config volume 1\n",
    HEAD + "config seed =\n", HEAD + "config trials -" + "9" * 4301 + "\n",
    HEAD.replace("= X", "= X +"), HEAD.replace("= X", "= 2 X"),
    HEAD.replace("= X", "= 2 *"), HEAD.replace("= X", "= + X"),
    HEAD.replace("= X", "X"), HEAD.replace("= X", "= X ; X"),
    HEAD.replace("A X =", "X A ="), HEAD.replace("A X =", "A A ="),
    HEAD.replace("A X =", "A 1 ="), HEAD.replace("A X =", "A ="),
    HEAD.replace("subalgebra X", "subalgebra X;"),
    HEAD.replace("subalgebra X", "subalgebra X ; 1/2 * A + A"),
    HEAD + "bracket X A = A\n", HEAD + "frobnicate\n", HEAD + "5 * X\n",
])
def test_refusals_read_as_the_reference_reads_them(text):
    assert outcome(oa.parse, text) == outcome(reference_parse, text)
