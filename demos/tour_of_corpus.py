"""
A tour of the bundled corpus
============================

Every .alg file shipped with the package gets the full treatment here:
parse, classify the algebra, find the generic orbit rank, and print the
two verdicts.  Run it from anywhere; the files are found next to the
package's own modules.
"""

from orbitadm import AnalysisConfig, check_problem, decide, parse
from orbitadm.cli import corpus_dir

config = AnalysisConfig(trials=20, bound=10 ** 6, seed=0)

print(f"{'name':<16}{'dim':>4}{'m':>3}{'d_tau':>6}   "
      f"{'spectral type':<22}{'admissibility'}")
print("-" * 78)

for entry in sorted(corpus_dir().iterdir()):
    if not entry.name.endswith(".alg"):
        continue
    pf = parse(entry.read_text())
    rep = decide(*check_problem(pf.algebra, pf.generator_terms,
                                pf.functional_vals), config)
    print(f"{entry.name[:-4]:<16}{pf.algebra.dim:>4}{pf.m:>3}"
          f"{rep.generic.d_tau:>6}   {rep.spectral:<22}"
          f"{rep.admissibility}")

print()
print("Reading the table: the spectral measure of the induced")
print("representation is absolutely continuous exactly when d_tau = m,")
print("i.e. when the subgroup acts freely somewhere (hence generically)")
print("on the spectral variety.  Admissible vectors exist only in the")
print("nonunimodular absolutely continuous case.")
