"""Line-oriented problem-file format: parse it, with positioned errors.

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

``parse`` reads a file in one pass.  Each line becomes the list of its
token texts, and every line is checked for an unexpected character before
the grammar reads any of them.  The grammar reads the texts by index, and
a column is worked out only for an error, by scanning its line again.
Bracket lines fill the constants by basis index, the antisymmetric entry
with them, for ``from_constants``; an integral coefficient stays an
``int``, so an integral table is built with no ``Fraction``.  Each
generator is kept as its {basis index: coefficient} term sum, which
``build_datum`` reads as it is and the ``validate`` summary prints.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from fractions import Fraction

from .algebra import LieAlgebra, Record, from_constants

Vector = tuple[Fraction, ...]
# the generators as {basis index: coefficient} term sums
Terms = tuple[dict[int, int | Fraction], ...]


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"line {line}, column {col}: {message}")


_RATIONAL = r"-?[0-9]+(?:/[0-9]+)?"
_RATIONAL_RE = re.compile(_RATIONAL)
# a token is a name, a rational or a mark (no two start with the same
# character, and names come first as the most common); blanks (spaces and
# tabs) part tokens, and every other character is unexpected
_TOKEN = rf"[A-Za-z_][A-Za-z0-9_]*|{_RATIONAL}|[*+;,=]"
_TOKEN_RE = re.compile(_TOKEN)
# the longest start of a line made of tokens and blanks; with no anchor at
# its end it never backtracks into a token
_CLEAN_RE = re.compile(rf"(?:[ \t]*(?:{_TOKEN}))*[ \t]*")
_RATIONAL_START = frozenset("-0123456789")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                        "abcdefghijklmnopqrstuvwxyz_")

# a line ends at CR LF, CR or LF only; str.splitlines would also break at
# form feeds, vertical tabs and Unicode separators, which are errors here
_LINE_BREAK = re.compile(r"\r\n|\r|\n")

# The parsed table and generators are sparse, and validation, the datum and
# the moment pencil follow their nonzero entries, but the analysis still
# builds dense exact rows and matrices (the n x n adapted basis, the dense
# generator rows of a report, the actions on the structure layer's
# quotients), so a longer basis line is refused before that work starts.
MAX_BASIS_NAMES = 128

CONFIG_KEYS = frozenset({"seed", "trials", "bound"})


class ProblemFile(Record):
    """A parsed problem.  generator_terms holds the generators as
    {basis index: coefficient} term sums, as ``parse`` read them (a term
    that cancels stays, as 0), and is what ``build_datum`` is given."""

    __slots__ = _compared = ("name", "algebra", "generator_terms",
                             "functional_vals", "config")

    def __init__(self, name: str, algebra: LieAlgebra,
                 generator_terms: Terms, functional_vals: Vector,
                 config: dict | None = None):
        self.name = name
        self.algebra = algebra
        self.generator_terms = generator_terms
        self.functional_vals = functional_vals
        self.config = {} if config is None else config

    @property
    def m(self) -> int:
        return len(self.generator_terms)


class _Refusal(Exception):
    """An error at token ``index`` of the line being read, ``offset``
    characters into it, or just past the line's last token when ``index``
    is the number of tokens; ``parse`` adds the line and column."""

    def __init__(self, index: int, message: str, offset: int = 0):
        super().__init__(message)
        self.index = index
        self.message = message
        self.offset = offset


def _scan(texts: list[str]) -> list[tuple[int, list[str]]]:
    """(line number, token texts) of each line with a token; the first
    unexpected character of any line is a ParseError."""
    lines = []
    for lineno, text in enumerate(texts, start=1):
        body = text.partition("#")[0]
        toks = _TOKEN_RE.findall(body)
        # every character outside a token must be a blank
        if (sum(map(len, toks)) + body.count(" ") + body.count("\t")
                != len(body)):
            col = _CLEAN_RE.match(body).end()
            raise ParseError(lineno, col + 1,
                             f"unexpected character {body[col]!r}")
        if toks:
            lines.append((lineno, toks))
    return lines


def _column(text: str, index: int, offset: int) -> int:
    """The column of a _Refusal on the line ``text``."""
    spans = [m.span() for m in _TOKEN_RE.finditer(text.partition("#")[0])]
    if index < len(spans):
        return spans[index][0] + offset + 1
    return spans[-1][1] + 1


def _expected(toks: list[str], i: int, what: str) -> _Refusal:
    found = repr(toks[i]) if i < len(toks) else "end of line"
    return _Refusal(i, f"expected {what}, found {found}")


def _expect(toks: list[str], i: int, text: str) -> int:
    """The index past toks[i], which must be ``text``."""
    if i < len(toks) and toks[i] == text:
        return i + 1
    raise _expected(toks, i, f"'{text}'")


def _end(toks: list[str], i: int) -> None:
    if i < len(toks):
        raise _expected(toks, i, "end of line")


def _name(toks: list[str], i: int, what: str) -> str:
    if i < len(toks) and toks[i][0] in _NAME_START:
        return toks[i]
    raise _expected(toks, i, what)


def _rational_text(toks: list[str], i: int, what: str) -> str:
    if i < len(toks) and toks[i][0] in _RATIONAL_START:
        return toks[i]
    raise _expected(toks, i, what)


def _int(text: str, index: int, offset: int = 0) -> int:
    """int(text) for a digit string; Python refuses very long ones."""
    try:
        return int(text)
    except ValueError:
        raise _Refusal(index, f"integer literal too long "
                       f"({len(text.lstrip('-'))} digits)", offset) from None


def _rational(text: str, index: int = 0) -> int | Fraction:
    """The value of a rational token: an int when it is written as one, so
    an integral bracket table reaches ``from_constants`` without
    Fractions."""
    num, slash, den = text.partition("/")
    if not slash:
        return _int(text, index)
    q = _int(den, index, len(num) + 1)
    if q == 0:
        raise _Refusal(index, "denominator must be a positive integer",
                       len(num) + 1)
    return Fraction(_int(num, index), q)


def _index(toks: list[str], i: int, names: dict[str, int], what: str) -> int:
    """The basis index of the name toks[i]; ``what`` is the token expected
    there when it is no name."""
    k = names.get(toks[i]) if i < len(toks) else None
    if k is None:
        raise _Refusal(i, f"unknown basis name {_name(toks, i, what)!r}")
    return k


def _term_sum(toks: list[str], i: int, names: dict[str, int]
              ) -> tuple[dict[int, int | Fraction], int]:
    """The {basis index: coefficient} of the sum of terms from toks[i], a
    repeated name adding up, and the index past it.  A term is RATIONAL
    '*' ID, or a bare ID with coefficient 1."""
    terms: dict[int, int | Fraction] = {}
    while True:
        if i < len(toks) and toks[i][0] in _RATIONAL_START:
            coeff = _rational(toks[i], i)
            i = _expect(toks, i + 1, "*")
            k = _index(toks, i, names, "a basis name")
        else:
            coeff = 1
            k = _index(toks, i, names,
                       "a term (coefficient * name, or a name)")
        terms[k] = terms.get(k, 0) + coeff
        i += 1
        if i == len(toks) or toks[i] != "+":
            return terms, i
        i += 1


def _line(lines: list, h: int, expected: str) -> tuple[int, list[str]]:
    """Header line h, which must be there."""
    if h < len(lines):
        return lines[h]
    raise ParseError(lines[-1][0] if lines else 1, 1,
                     f"expected {expected}, found end of file")


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


# what the commands of ``cli`` and ``pointwise`` share, kept here so that
# ``pointwise`` never imports ``orbitadm.cli``: under python -m, cli.py
# runs as __main__, and that import would run a second copy of it
EXIT_OK = 0


class _UsageError(Exception):
    """Bad usage, or a file that cannot be read: ``cli.main`` prints it and
    exits 1."""


@contextmanager
def _printable(what: str):
    """Python's refusal to write an int of over 4,300 digits as text, met
    in a report or a refusal of an accepted file, as a _UsageError."""
    try:
        yield
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise _UsageError(f"a number in {what} has too many digits to "
                          "print") from None


def _load(path: str) -> ProblemFile:
    """The problem file at ``path``, read, decoded and parsed."""
    try:
        with open(path, "rb") as file:
            data = file.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    return parse(decode(data))


def parse(source: str) -> ProblemFile:
    """The problem of ``source``; the first error is a ParseError."""
    texts = _LINE_BREAK.split(source)
    lines = _scan(texts)
    lineno = 0
    try:
        # --- header -------------------------------------------------------
        lineno, toks = _line(lines, 0, "'algebra'")
        _expect(toks, 0, "algebra")
        name = _name(toks, 1, "an algebra name")
        _end(toks, 2)

        lineno, toks = _line(lines, 1, "'dim'")
        _expect(toks, 0, "dim")
        dim = _rational_text(toks, 1, "a positive integer dimension")
        _end(toks, 2)
        n = 0 if "/" in dim else _int(dim, 1)
        if n < 1:
            raise _Refusal(1, "dimension must be a positive integer")

        lineno, toks = _line(lines, 2, "'basis'")
        _expect(toks, 0, "basis")
        if len(toks) - 1 > MAX_BASIS_NAMES:
            raise _Refusal(0, f"basis lists {len(toks) - 1} names; at most "
                           f"{MAX_BASIS_NAMES} are supported")
        names: dict[str, int] = {}
        for i in range(1, len(toks)):
            nm = _name(toks, i, "a basis name")
            if nm in names:
                raise _Refusal(i, f"duplicate basis name {nm!r}")
            names[nm] = i - 1
        if len(names) != n:
            raise ParseError(lineno, 1,
                             f"basis lists {len(names)} names for dim {n}")

        # --- statements ---------------------------------------------------
        constants: dict[tuple[int, int], dict[int, int | Fraction]] = {}
        first_line: dict[tuple[int, int], int] = {}
        sub_terms: list[dict[int, int | Fraction]] | None = None
        functional: tuple[tuple[Fraction, ...], int] | None = None
        config: dict = {}

        for lineno, toks in lines[3:]:
            head = _name(toks, 0, "'bracket', 'subalgebra', 'functional' "
                         "or 'config'")
            if head == "bracket":
                if sub_terms is not None or functional is not None:
                    raise _Refusal(0, "bracket lines must precede the "
                                   "subalgebra and functional blocks")
                a = _name(toks, 1, "a basis name")
                b = _name(toks, 2, "a basis name")
                i, j = names.get(a), names.get(b)
                if i is None:
                    raise _Refusal(1, f"unknown basis name {a!r}")
                if j is None:
                    raise _Refusal(2, f"unknown basis name {b!r}")
                if i == j:
                    raise _Refusal(2, "bracket of identical generators must "
                                   "be omitted (it is zero by antisymmetry)")
                if (i, j) in first_line:
                    raise _Refusal(1, f"duplicate bracket for pair ({a}, "
                                   f"{b}); first given on line "
                                   f"{first_line[i, j]}")
                first_line[i, j] = first_line[j, i] = lineno
                terms, end = _term_sum(toks, _expect(toks, 3, "="), names)
                _end(toks, end)
                constants[i, j] = terms
                constants[j, i] = {k: -q for k, q in terms.items()}
            elif head == "subalgebra":
                if sub_terms is not None:
                    raise _Refusal(0, "duplicate subalgebra block")
                if functional is not None:
                    raise _Refusal(0, "subalgebra must precede the "
                                   "functional")
                sub_terms, i = [], 1
                while True:
                    terms, i = _term_sum(toks, i, names)
                    sub_terms.append(terms)
                    if i == len(toks):
                        break
                    i = _expect(toks, i, ";")
            elif head == "functional":
                if functional is not None:
                    raise _Refusal(0, "duplicate functional block")
                if sub_terms is None:
                    raise _Refusal(0, "functional requires a subalgebra "
                                   "block")
                vals, i = [], 1
                while True:
                    vals.append(Fraction(_rational(
                        _rational_text(toks, i, "a rational value"), i)))
                    i += 1
                    if i == len(toks):
                        break
                    i = _expect(toks, i, ",")
                functional = (tuple(vals), lineno)
            elif head == "config":
                key = _name(toks, 1, "a config key")
                if key not in CONFIG_KEYS:
                    known = ", ".join(sorted(CONFIG_KEYS))
                    raise _Refusal(1, f"unknown config key {key!r} "
                                   f"(known: {known})")
                if key in config:
                    raise _Refusal(1, f"duplicate config key {key!r}")
                if len(toks) == 2:
                    raise _expected(toks, 2, "a config value")
                _end(toks, 3)
                value = toks[2]
                if value[0] not in _RATIONAL_START or "/" in value:
                    raise _Refusal(2, f"expected an integer, found {value!r}")
                config[key] = _int(value, 2)
            else:
                raise _Refusal(0, "expected 'bracket', 'subalgebra', "
                               f"'functional' or 'config', found {head!r}")

        sub_terms = tuple(sub_terms or ())
        if functional is None:
            f_vals = (Fraction(0),) * len(sub_terms)
        else:
            f_vals, lineno = functional
            if len(f_vals) != len(sub_terms):
                raise _Refusal(0, f"functional has {len(f_vals)} values for "
                               f"{len(sub_terms)} generators")
    except _Refusal as exc:
        raise ParseError(lineno, _column(texts[lineno - 1], exc.index,
                                         exc.offset), exc.message) from None

    algebra = from_constants(name, tuple(names), constants)
    return ProblemFile(name=name, algebra=algebra, generator_terms=sub_terms,
                       functional_vals=f_vals, config=config)

