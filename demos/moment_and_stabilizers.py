# Moment matrix and stabilizers on the Heisenberg algebra, by hand and
# by library.
#
# Take h3 = span{X, Y, Z} with [X, Y] = Z, the subalgebra h = span{Y, Z},
# and the character value f = (0, 1).  The spectral variety is the line
# of functionals l with l(Y) = 0, l(Z) = 1, parameterized by a = l(X).

from fractions import Fraction

from orbitadm import (build_datum, from_brackets, point_on_variety,
                      stabilizer_report)

L = from_brackets("h3", ("X", "Y", "Z"), {("X", "Y"): {"Z": 1}})
# each generator by its {basis index: coefficient}: Y is 1, Z is 2
D = build_datum(L, [{1: 1}, {2: 1}], [0, 1])

print("adapted basis rows (Y's first, completion last):")
for row in D.adapted_rows:
    print("   ", ", ".join(map(str, row)))
print()

# The moment matrix has entries l[Y_i, B_j] over the adapted columns.
# Row Y: l[Y, Y] = 0, l[Y, Z] = 0, l[Y, X] = l(-Z) = -1.  Row Z: zero.
# So M(l) is constant of rank 1 on the whole variety -- the subgroup
# never acts freely and the spectral measure is singular.  Points of the
# variety are named by their chart coordinate a, as everywhere in the
# library; the stabilizer report reads rank M(l) there.
for a in (Fraction(0), Fraction(5), Fraction(-3, 2)):
    l = point_on_variety(D, (a,))
    print(f"l = {l}   rank M(l) = {stabilizer_report(D, (a,)).rank_M}")

print()
sr = stabilizer_report(D, (Fraction(5),))
print("at a = 5:")
print("  dim H-orbit (rank M):", sr.rank_M)
print("  h-stabilizer basis:", sr.h_stab_basis)
print("  dim G-orbit:", sr.dim_G_orbit, "(always even)")
print("  g-stabilizer basis:", sr.g_stab_basis)
print()
print("The stabilizer of every point contains the center Z, which is")
print("why rank M(l) = 1 < 2 = m everywhere: the induced representation")
print("here is singular and admits no admissible vector.")
