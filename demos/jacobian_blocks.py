from orbitadm import build_datum, fd_jacobian, from_brackets

# The chart map sends group coordinates t and transverse coordinates x to
# the moved functional s(t) . l(x), read off in adapted coordinates.  Its
# Jacobian at (t, x) = (0, x) has a forced block shape
#
#        [ M(l(x))   0 ]
#        [    *      I ]
#
# so rank J = rank M(l) + (n - m).  Below we verify that numerically on
# a two-parameter family where the generic rank is 2.

L = from_brackets("diag", ("A", "X", "Y"),
                  {("A", "X"): {"X": 1}, ("A", "Y"): {"Y": 2}})
D = build_datum(L, [L.vector(X=1), L.vector(Y=1)], [1, 1])

jr = fd_jacobian(D, (0.5,), h=1e-4)

print("finite-difference J at x = (1/2):")
for row in jr.J:  # a list of rows of floats
    print("  ".join(f"{v:10.6f}" for v in row))
print()
print("deviation of the top-left block from the exact moment matrix: "
      f"{jr.max_dev_topleft:.3e}")
print("deviation of the top-right block from zero:                   "
      f"{jr.max_dev_topright:.3e}")
print("deviation of the bottom-right block from the identity:        "
      f"{jr.max_dev_bottomright:.3e}")
print()
print(f"numerical rank {jr.numerical_rank_J}, "
      f"expected rank M(l) + n - m = {jr.expected_rank}")

# The same machinery, pointwise, is what turns the generic-rank number
# d_tau into a geometric statement: where rank M(l) = m the chart map is
# a submersion, so the variety pushes into open orbit unions.
