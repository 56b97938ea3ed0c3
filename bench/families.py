"""Problem files for the benchmark, each carrying its answer in closed form.

Every generator returns a ``Problem``: the problem-file text and the answer
`orbitadm verdict` must give.  The answers are derived by hand in the
docstrings below, never from orbitadm's own output.

Notation: ``l`` is a point of the spectral variety A_tau = f + h^perp, M(l)
the moment matrix with rows Y_i (the generators of h) and entries
l([Y_i, B_j]) over the adapted basis B, and d = d_tau its generic rank.
The verdict is AbsolutelyContinuous iff d = m; then Admissible iff g is
nonunimodular, otherwise ConjecturallyNotAdmissible.  Singular spectrum is
always NotAdmissible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

AC = "AbsolutelyContinuous"
SINGULAR = "Singular"
ADMISSIBLE = "Admissible"
NOT_ADMISSIBLE = "NotAdmissible"
CONJ_NOT_ADMISSIBLE = "ConjecturallyNotAdmissible"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PRECONDITION = 2


@dataclass(frozen=True)
class Answer:
    """What a `verdict` run must report.

    A rejected input carries only its exit code; an accepted one carries
    d_tau, m and the two statuses as the report prints them.
    """

    exit_code: int
    d_tau: int | None = None
    m: int | None = None
    spectral: str | None = None
    admissibility: str | None = None


def decided(d_tau: int, m: int, unimodular: bool) -> Answer:
    """The verdict table applied to a hand-derived d_tau."""
    if d_tau < m:
        return Answer(EXIT_OK, d_tau, m, SINGULAR, NOT_ADMISSIBLE)
    return Answer(EXIT_OK, d_tau, m, AC,
                  CONJ_NOT_ADMISSIBLE if unimodular else ADMISSIBLE)


def rejected(exit_code: int) -> Answer:
    return Answer(exit_code)


@dataclass(frozen=True)
class Problem:
    name: str
    n: int
    m: int
    text: str
    answer: Answer


def _combo(coeffs: dict) -> str:
    parts = []
    for name, q in coeffs.items():
        q = Fraction(q)
        parts.append(name if q == 1 else f"{q} * {name}")
    return " + ".join(parts)


def problem_text(name: str, basis, brackets, generators, functional) -> str:
    """Serialize one problem in the orbitadm problem-file format.

    ``brackets`` maps (a, b) to {c: coefficient}; ``generators`` is a list
    of {basis name: coefficient}; ``functional`` has one value per
    generator.
    """
    lines = [f"algebra {name}", f"dim {len(basis)}",
             "basis " + " ".join(basis)]
    for (a, b), combo in brackets.items():
        lines.append(f"bracket {a} {b} = {_combo(combo)}")
    if generators:
        lines.append("subalgebra " + "; ".join(_combo(g) for g in generators))
        lines.append("functional " + ", ".join(str(Fraction(v))
                                               for v in functional))
    return "\n".join(lines) + "\n"


def heisenberg(k: int, subalgebra: str) -> Problem:
    """h_{2k+1}: [X_i, Y_i] = Z, nilpotent hence unimodular.

    ``lagrangian``: h = span{Y_1..Y_k}, f = 0.  Row Y_i of M(l) is nonzero
    only in column X_i, where it is l([Y_i, X_i]) = -l(Z).  So M(l) is
    -l(Z) times a k x k identity block: d = k = m off l(Z) = 0, and the
    verdict is AC, ConjecturallyNotAdmissible.

    ``centre``: h = span{Z}, f = 1.  ad Z = 0, so M(l) = 0 and d = 0 < 1:
    Singular, NotAdmissible.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    xs = [f"X{i}" for i in range(1, k + 1)]
    ys = [f"Y{i}" for i in range(1, k + 1)]
    brackets = {(x, y): {"Z": 1} for x, y in zip(xs, ys)}
    n = 2 * k + 1
    if subalgebra == "lagrangian":
        gens, f, answer = [{y: 1} for y in ys], [0] * k, decided(k, k, True)
    elif subalgebra == "centre":
        gens, f, answer = [{"Z": 1}], [1], decided(0, 1, True)
    else:
        raise ValueError(f"unknown Heisenberg subalgebra {subalgebra!r}")
    name = f"h{n}_{subalgebra}"
    text = problem_text(name, xs + ys + ["Z"], brackets, gens, f)
    return Problem(name, n, len(gens), text, answer)


def _borel_bracket(a, b):
    """[E_ij, E_kl] = delta_jk E_il - delta_li E_kj as {(r, s): coeff}."""
    (i, j), (k, l) = a, b
    out = {}
    if j == k:
        out[(i, l)] = out.get((i, l), 0) + 1
    if l == i:
        out[(k, j)] = out.get((k, j), 0) - 1
    return {key: q for key, q in out.items() if q != 0}


def borel(N: int, subalgebra: str) -> Problem:
    """b_N: upper-triangular N x N matrices, basis E_ij (i <= j).

    b_N is nonunimodular for N >= 2: tr ad E_11 = N - 1.

    ``cartan``: h = diagonal span{E_ii}, f = 0, so l(E_ii) = 0 and the
    chart coordinates are x_ij = l(E_ij), i < j.  [E_kk, E_ij] =
    (delta_ki - delta_kj) E_ij, so column E_ij of M(l) is x_ij (e_i - e_j)
    and the diagonal columns vanish.  Generically every x_ij != 0 and the
    roots e_i - e_j span the sum-zero hyperplane: d = N - 1 < N = m,
    Singular.

    ``nilradical``: h = span{E_ij : i < j}, f = 1 on E_{i,i+1} and 0 on the
    rest (f kills [h, h], which lies in the span of E_ij with j >= i + 2).
    Brackets inside h land where l = 0, so only the diagonal columns count:
    l([E_ij, E_kk]) = (delta_jk - delta_ik) l(E_ij).  Only the rows
    E_{i,i+1} are nonzero, equal to e_{i+1} - e_i, independent of the chart
    point: d = N - 1 everywhere, m = N(N-1)/2.  Free (hence Admissible)
    only at N = 2; Singular for N >= 3.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    pairs = [(i, j) for i in range(1, N + 1) for j in range(i, N + 1)]

    def nm(p):
        return f"E{p[0]}_{p[1]}"

    brackets = {}
    for s, a in enumerate(pairs):
        for b in pairs[s + 1:]:
            combo = _borel_bracket(a, b)
            if combo:
                brackets[(nm(a), nm(b))] = {nm(p): q for p, q in combo.items()}
    if subalgebra == "cartan":
        gens = [{nm((i, i)): 1} for i in range(1, N + 1)]
        f = [0] * N
        answer = decided(N - 1, N, False)
    elif subalgebra == "nilradical":
        nil = [p for p in pairs if p[0] < p[1]]
        gens = [{nm(p): 1} for p in nil]
        f = [1 if j == i + 1 else 0 for i, j in nil]
        answer = decided(N - 1, len(nil), False)
    else:
        raise ValueError(f"unknown Borel subalgebra {subalgebra!r}")
    name = f"b{N}_{subalgebra}"
    text = problem_text(name, [nm(p) for p in pairs], brackets, gens, f)
    return Problem(name, len(pairs), len(gens), text, answer)


def diagonal(k: int, m: int) -> Problem:
    """A ⋉ R^k with [A, X_i] = i X_i; tr ad A = k(k+1)/2, so nonunimodular.

    ``m = 1``: h = span{X_1}, f = 1.  l([X_1, A]) = -l(X_1) = -1 at every
    point, so d = 1 = m: AC and Admissible (the ax+b wavelet in disguise).

    ``m = k``: h = span{X_1..X_k}, f = (1, ..., 1).  h is abelian, so the
    only nonzero column of M(l) is A, with entries l([X_i, A]) = -i.
    d = 1: Singular for k >= 2 (at k = 1 this is the m = 1 case).
    """
    if k < 1 or m not in (1, k):
        raise ValueError("need k >= 1 and m in (1, k)")
    xs = [f"X{i}" for i in range(1, k + 1)]
    brackets = {("A", x): {x: i} for i, x in enumerate(xs, start=1)}
    gens = [{x: 1} for x in xs[:m]]
    name = f"diag{k}_m{m}"
    text = problem_text(name, ["A"] + xs, brackets, gens, [1] * m)
    return Problem(name, k + 1, m, text, decided(1, m, False))


def twist(j: int) -> Problem:
    """R^2 ⋉ R^{2j} with ad A = I + J and ad B = I - J on each plane.

    J rotates (X_i, Y_i) to (Y_i, -X_i).  ad A and ad B commute, so this
    is a solvable Lie algebra, but ad(A - B) = 2J has eigenvalues +-2i:
    g is not exponential, and `verdict` must refuse it with exit code 2.
    h = span{X_1}, f = 1.
    """
    if j < 1:
        raise ValueError("j must be at least 1")
    brackets = {}
    basis = ["A", "B"]
    for i in range(1, j + 1):
        x, y = f"X{i}", f"Y{i}"
        basis += [x, y]
        brackets[("A", x)] = {x: 1, y: 1}
        brackets[("A", y)] = {x: -1, y: 1}
        brackets[("B", x)] = {x: 1, y: -1}
        brackets[("B", y)] = {x: 1, y: 1}
    name = f"twist{j}"
    text = problem_text(name, basis, brackets, [{"X1": 1}], [1])
    return Problem(name, 2 + 2 * j, 1, text, rejected(EXIT_PRECONDITION))


def rejects() -> list[Problem]:
    """Inputs `verdict` must refuse, with the exit code it must give."""
    sl2 = problem_text(  # simple, so the derived series never reaches 0
        "sl2", ["H", "E", "F"],
        {("H", "E"): {"E": 2}, ("H", "F"): {"F": -2}, ("E", "F"): {"H": 1}},
        [{"E": 1}], [0])
    motion = problem_text(  # ad A rotates the plane: eigenvalues +-i
        "motion", ["A", "X", "Y"],
        {("A", "X"): {"Y": 1}, ("A", "Y"): {"X": -1}}, [{"X": 1}], [1])
    broken = problem_text(  # cyclic sum at (X, Y, Z) is [[Z, X], Y] = -Z
        "broken_jacobi", ["X", "Y", "Z"],
        {("X", "Y"): {"Z": 1}, ("X", "Z"): {"X": 1}}, [{"Y": 1}, {"Z": 1}],
        [0, 1])
    malformed = "algebra bad\ndim 2\nbasis A X\nbracket A X = X +\n"
    return [
        Problem("sl2", 3, 1, sl2, rejected(EXIT_PRECONDITION)),
        Problem("motion", 3, 1, motion, rejected(EXIT_PRECONDITION)),
        Problem("broken_jacobi", 3, 2, broken, rejected(EXIT_INVALID)),
        Problem("malformed", 2, 0, malformed, rejected(EXIT_INVALID)),
    ]


# The bundled corpus, with the answers of the README table.  For the
# pointwise commands each entry also has a chart point and the exact rank
# of M(l) there, worked out by hand from the brackets in the corpus file.
CORPUS = {
    #  name            d  m  unimodular  point    rank at point
    "abelian_r3":    (0, 0, True, "1,1,1", 0),
    "heisenberg_yz": (1, 2, True, "1", 1),      # l([Y, X]) = -l(Z) = -1
    "heisenberg_x":  (1, 1, True, "1,1", 1),    # l([X, Y]) = l(Z) = x_2
    "heisenberg_z":  (0, 1, True, "1,1", 0),
    "h5_y1y2":       (2, 2, True, "1,1,1", 2),  # -l(Z) I_2, l(Z) = x_3
    "axb_f0":        (0, 1, False, "1", 0),     # l([X, A]) = -f = 0
    "axb_f1":        (1, 1, False, "1", 1),
    "diag_2d":       (1, 2, False, "1", 1),     # column A = (-1, -2)
    "grelaud":       (1, 1, False, "1,2", 1),   # l([X, A]) = l(Y) - 1
}


def corpus_answer(name: str) -> Answer:
    d, m, unimodular, _, _ = CORPUS[name]
    return decided(d, m, unimodular)
