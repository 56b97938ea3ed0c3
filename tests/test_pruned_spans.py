"""Support-pruned bracket spans against the spans of every product.

``algebra._products`` forms [u, v] only when some nonzero plane
table[i][j] has i among u's coordinates and j among v's.  The references
below form every product, with dense loops over the whole table, and hand
all of them to ``linalg.echelon``.  On random sparse integer tables, with
and without antisymmetry, breaking Jacobi, and with twin rows whose
products cancel inside nonzero planes, the pruned derived and lower
central steps, the flag of C^inf and the generator pairs of
``build_datum`` must give the same (rows, pivots), a pair left out must
have a zero product, and a pair is formed exactly when it meets a nonzero
plane.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from orbitadm import algebra
from orbitadm.linalg import echelon


def full_product(L, u, v):
    """[u, v] in the integer table from every table entry, as {k: int}."""
    out = {}
    for i in range(L.dim):
        for j in range(L.dim):
            for k, q in L.table[i][j]:
                x = out.get(k, 0) + u.get(i, 0) * v.get(j, 0) * q
                if x:
                    out[k] = x
                else:
                    out.pop(k, None)
    return out


def full_products(L, us, vs=None):
    """(s, t, [us[s], vs[t]]) for every pair, as ``_products`` orders them."""
    for s, u in enumerate(us):
        right = us if vs is None else vs
        for t in range(s + 1 if vs is None else 0, len(right)):
            yield s, t, full_product(L, u, right[t])


def full_span(L, us, vs=None, limit=None):
    return echelon((w for _, _, w in full_products(L, us, vs)), limit=limit)


def full_flag(L, commutator, stable):
    """The flag of C^inf, or None when it has not reached 0 after n steps,
    as on a table that is no Lie algebra it need not."""
    flag = [stable]
    while flag[-1] and len(flag) <= L.dim:
        flag.append(full_span(L, commutator, flag[-1])[0])
    return None if flag[-1] else flag


@st.composite
def tables(draw):
    """A random sparse integer algebra: antisymmetric or not, Jacobi mostly
    broken, and with a twin row b whose planes are minus those of a, so
    that [e_a + e_b, v] cancels inside nonzero planes."""
    n = draw(st.integers(1, 6))
    coefficient = st.integers(-2, 2)
    planes = {}
    for i in range(n):
        for j in range(n):
            if i != j and draw(st.integers(0, 2)) == 0:
                planes[i, j] = {k: draw(coefficient)
                                for k in draw(st.sets(st.integers(0, n - 1),
                                                      max_size=2))}
    if draw(st.booleans()):  # antisymmetric
        planes = {(i, j): combo for (i, j), combo in planes.items() if i < j}
        planes |= {(j, i): {k: -q for k, q in combo.items()}
                   for (i, j), combo in planes.items()}
    if n > 1 and draw(st.booleans()):  # a twin row
        a, b = draw(st.permutations(range(n)))[:2]
        planes = {ij: combo for ij, combo in planes.items() if ij[0] != b}
        planes |= {(b, j): {k: -q for k, q in combo.items()}
                   for (i, j), combo in list(planes.items()) if i == a}
    names = [f"Z{i}" for i in range(n)]
    return algebra.from_constants("random", names, planes)


@st.composite
def rows(draw, n, max_size=5):
    """Sparse integer rows, some empty, some with entries that twin rows
    cancel (equal coefficients on two coordinates)."""
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        keys = draw(st.sets(st.integers(0, n - 1), max_size=3))
        value = st.integers(-3, 3).filter(bool)
        if draw(st.booleans()):
            q = draw(value)
            out.append({k: q for k in keys})
        else:
            out.append({k: draw(value) for k in keys})
    return out


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_pruned_products_are_the_nonzero_products(data):
    L = data.draw(tables())
    us = data.draw(rows(L.dim))
    vs = data.draw(rows(L.dim))
    for pair in ((us, None), (us, vs)):
        pruned = {(s, t): w for s, t, w in algebra._products(L, *pair)}
        assert list(pruned) == sorted(pruned)
        # formed exactly for the pairs that meet a nonzero plane
        right = us if pair[1] is None else vs
        assert list(pruned) == [
            (s, t) for s, t, _ in full_products(L, *pair)
            if any(L.table[i][j] for i in us[s] for j in right[t])]
        for s, t, w in full_products(L, *pair):
            got = pruned.get((s, t), {})
            assert {k: x for k, x in got.items() if x} == w


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_pruned_spans_match_every_product(data):
    L = data.draw(tables())
    us = data.draw(rows(L.dim))
    vs = data.draw(rows(L.dim))
    # the derived step and the generator pairs of build_datum: pairs s < t
    assert echelon(w for _, _, w in algebra._products(L, us)) \
        == full_span(L, us)
    assert algebra._span(L, us) == full_span(L, us)[0]
    # the lower central step, with its early stop, and the flag step
    basis = [{z: 1} for z in range(L.dim)]
    assert algebra._lower_central_step(L, us) \
        == full_span(L, basis, us, limit=len(us))[0]
    assert algebra._span(L, us, vs) == full_span(L, us, vs)[0]


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_series_and_flag_match_every_product(data):
    L = data.draw(tables())
    commutator = algebra._commutator(L)
    for step, full_step in (
            (algebra._span, lambda rows: full_span(L, rows)[0]),
            (algebra._lower_central_step, lambda rows: full_span(
                L, [{z: 1} for z in range(L.dim)], rows,
                limit=len(rows))[0])):
        dims, last = algebra._series(L, commutator, step)
        current, full_dims = commutator, [L.dim]
        while len(current) < full_dims[-1]:
            full_dims.append(len(current))
            current = full_step(current)
        assert (dims, last) == (tuple(full_dims), current)
    _, stable = algebra._series(L, commutator, algebra._lower_central_step)
    flag = full_flag(L, commutator, stable)
    if flag is not None:
        assert algebra._flag(L, commutator, stable) == flag
