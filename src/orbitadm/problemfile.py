"""Line-oriented problem-file format: parse, validate positions, serialize.

    algebra NAME
    dim INT
    basis ID ...                        # exactly dim distinct names, <= 128
    bracket ID ID = term [+ term ...]   # omitted pairs bracket to zero
    subalgebra gen [; gen ...]          # gen := term [+ term ...]
    functional RAT [, RAT ...]          # one value per generator, in order
    config KEY INT                      # KEY is seed, trials or bound

A term is RATIONAL * ID or a bare ID (coefficient 1); rationals are INT or
INT/POSINT, with the ASCII digits 0-9 only.  '#' starts a comment.
Omitting the subalgebra means the trivial one (m = 0); omitting the
functional means f = 0.  A file is UTF-8 text whose lines end at LF,
CR LF or CR.  All errors carry (line, column, message).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import LieAlgebra, dense_vector, format_combo, from_brackets

Vector = tuple[Fraction, ...]


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"line {line}, column {col}: {message}")


_TOKEN_RE = re.compile(r"""
    (?P<RATIONAL>-?[0-9]+(?:/[0-9]+)?)
  | (?P<ID>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<PUNCT>[*+;,=])
  | (?P<SPACE>[ \t]+)
  | (?P<BAD>.)
""", re.VERBOSE)

# a line ends at CR LF, CR or LF only; str.splitlines would also break at
# form feeds, vertical tabs and Unicode separators, which are errors here
_LINE_BREAK = re.compile(r"\r\n|\r|\n")

# The parsed table is sparse, and validation and the moment pencil follow its
# nonzero constants, but the analysis builds dense n x n exact matrices (the
# adapted basis, the actions on the structure layer's quotients), so a
# longer basis line is refused before that work starts.
MAX_BASIS_NAMES = 128

CONFIG_KEYS = frozenset({"seed", "trials", "bound"})


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


@dataclass(frozen=True)
class ProblemFile:
    name: str
    algebra: LieAlgebra
    subalgebra_rows: tuple[Vector, ...]
    functional_vals: Vector
    config: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.subalgebra_rows)


def _int(text: str, line: int, col: int) -> int:
    """int(text) for a digit string; Python refuses very long ones."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(line, col, f"integer literal too long "
                         f"({len(text.lstrip('-'))} digits)") from None


def _rational(tok: Token) -> int | Fraction:
    """The token's value: an int when it is written as one, so an integral
    bracket table reaches ``from_brackets`` without Fractions."""
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
    """One term: RATIONAL '*' ID, or a bare ID with coefficient 1."""
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
    """The (index, coefficient) pairs of a sum; a repeated name adds up."""
    terms: dict[int, int | Fraction] = {}
    while True:
        idx, coeff = _term(line, names)
        terms[idx] = terms.get(idx, 0) + coeff
        tok = line.peek()
        if tok is None or tok.text != "+":
            return list(terms.items())
        line.take("PUNCT", "'+'", "+")


def decode(data: bytes) -> str:
    """A problem file's bytes as UTF-8 text; a byte sequence that is not
    UTF-8 is a ParseError at its line and column."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = _LINE_BREAK.split(data[:exc.start].decode("utf-8"))
        raise ParseError(len(lines), len(lines[-1]) + 1,
                         f"invalid UTF-8 byte 0x{data[exc.start]:02x}"
                         ) from None


def parse(source: str) -> ProblemFile:
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

    # --- header -----------------------------------------------------------
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

    # --- statements -------------------------------------------------------
    brackets: dict[tuple[str, str], dict[str, int | Fraction]] = {}
    seen_pairs: dict[frozenset, int] = {}
    sub_rows: list[Vector] | None = None
    functional: tuple[tuple[Fraction, ...], Token] | None = None
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


def _config_value(tok: Token) -> int:
    if tok.kind != "RATIONAL" or "/" in tok.text:
        raise ParseError(tok.line, tok.col,
                         f"expected an integer, found {tok.text!r}")
    return _int(tok.text, tok.line, tok.col)


def serialize(pf: ProblemFile) -> str:
    """Canonical text form; parse(serialize(pf)) == pf."""
    L = pf.algebra
    names = L.basis_names
    out = [f"algebra {pf.name}", f"dim {L.dim}", "basis " + " ".join(names)]
    for i, plane in enumerate(L.nonzero):
        for j in range(i + 1, L.dim):
            if plane[j]:
                combo = format_combo(dense_vector(plane[j], L.dim), names)
                out.append(f"bracket {names[i]} {names[j]} = {combo}")
    if pf.subalgebra_rows:
        gens = "; ".join(format_combo(row, names)
                         for row in pf.subalgebra_rows)
        out.append(f"subalgebra {gens}")
        out.append("functional " + ", ".join(map(str, pf.functional_vals)))
    for key in sorted(pf.config):
        out.append(f"config {key} {pf.config[key]}")
    return "\n".join(out) + "\n"


def parse_rational_list(text: str) -> tuple[Fraction, ...]:
    """Comma-separated rationals, e.g. '1,-2/3,0' (used for --point), each
    read as a problem file reads a rational; errors carry no position.  An
    empty text is no rationals: the chart of h = g has no coordinates."""
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
