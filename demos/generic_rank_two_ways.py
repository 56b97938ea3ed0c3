"""Two independent routes to the generic orbit rank, side by side.

The probabilistic route samples random integer points of the spectral
variety and takes the best exact rank seen; a nonvanishing minor misses
its zero set at almost every sample, so the maximum is right except with
vanishing probability.  The symbolic route writes the moment matrix over a
basis of the span of its chart coefficients, so each entry is a linear form
in a few new variables (printed x1, x2, ...), and eliminates fraction-free
over the polynomial ring, which certifies the rank outright but names no
point.  The package reports the sampled witness and checks that the
certified rank is its rank; this script just makes that visible.
"""

from orbitadm import generic_h_orbit_dim, parse, build_datum
from orbitadm.cli import corpus_path
from orbitadm.moment import symbolic_moment_entries
from orbitadm import symbolic_generic_rank

for name in ("heisenberg_yz", "grelaud", "h5_y1y2"):
    pf = parse(corpus_path(name).read_text())
    D = build_datum(pf.algebra, pf.subalgebra_rows, pf.functional_vals)

    print(f"== {name} (n = {D.n}, m = {D.m})")
    print("   moment entries as linear forms over the pencil's span:")
    for row in symbolic_moment_entries(D):
        print("     ", [str(p) for p in row])

    prob = generic_h_orbit_dim(D, trials=20, bound=10 ** 6, seed=0)
    certified = symbolic_generic_rank(D)
    witness = ", ".join(map(str, prob.witness))
    print(f"   sampled:   d_tau = {prob.d_tau} (witness x = ({witness}))")
    print(f"   certified: d_tau = {certified}")
    assert prob.d_tau == certified
    print("   agree:", prob.d_tau == certified)
    print()
