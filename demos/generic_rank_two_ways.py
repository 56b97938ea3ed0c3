"""Two independent routes to the generic orbit rank, side by side.

The probabilistic route samples random integer points of the spectral
variety and takes the best exact rank seen, which bounds the generic rank
from below.  At that witness it also looks for a shrunk-subspace
certificate: subspaces U, W with M(x) U inside W at every x, which bounds
the rank from above by (n - m) - (dim U - dim W).  The pencil's image
(U everything, W the span of the columns of the coefficient matrices, no
Wong step) is tried first, then the limit of the second Wong sequence;
on these four files the image closes.  The symbolic route writes the moment matrix
over a basis of the span of its chart coefficients, so each entry is a
linear form in a few new variables (printed x1, x2, ...), and eliminates
fraction-free over the polynomial ring, which certifies the rank outright
but names no point.  Both read the datum's one sparse pencil, which holds
only the m x (n - m) block of columns X_1..X_{n-m}: the columns of the
Y_j are 0, since f is a character, so that block is what is printed.  generic_h_orbit_dim runs it only when no certificate
closes, and its result's proof field says which route proved the rank;
this script runs both to make the agreement visible.
"""

from orbitadm import generic_h_orbit_dim, parse, build_datum
from orbitadm.cli import corpus_path
from orbitadm.poly import symbolic_moment_entries
from orbitadm import symbolic_generic_rank

for name in ("heisenberg_yz", "grelaud", "h5_y1y2", "diag_2d"):
    pf = parse(corpus_path(name).read_text())
    D = build_datum(pf.algebra, pf.generator_terms, pf.functional_vals)

    print(f"== {name} (n = {D.n}, m = {D.m})")
    print("   the m x (n - m) block, as linear forms over the pencil's span:")
    for row in symbolic_moment_entries(D):
        print("     ", [str(p) for p in row])

    prob = generic_h_orbit_dim(D, trials=20, bound=10 ** 6, seed=0)
    dim_u, dim_w, steps = prob.proof
    proven = D.n - D.m - (dim_u - dim_w)
    certified = symbolic_generic_rank(D)
    witness = ", ".join(map(str, prob.witness))
    print(f"   sampled:     d_tau >= {prob.d_tau} "
          f"(witness x = ({witness}))")
    print(f"   certificate: d_tau <= {proven} "
          f"(dim U = {dim_u}, dim W = {dim_w}, Wong steps {steps})")
    print(f"   symbolic:    d_tau = {certified}")
    assert prob.d_tau == proven == certified
    print("   agree:", prob.d_tau == proven == certified)
    print()
