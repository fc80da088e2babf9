"""A walk through the algebra side of the package.

Run as: python3 demos/algebra_tour.py

Builds a few small contact algebras, shows which axioms hold and with
what witnesses, then measures dimension, weight, and pi-weight, and
finishes with the induced-contact construction and the product and
relative constructions.
"""

from contactalg import (
    AXIOM_NAMES,
    ContactAlgebra,
    all_subalgebras,
    algebra_weight,
    check_axiom,
    check_lca_axioms,
    cycle_algebra,
    dim_a,
    extremal_relation,
    generated_subalgebra,
    nca_as_lca,
    pi_weight,
    powerset_algebra,
    product_lca,
    query,
    relative_lca,
    rho_from_subalgebra,
)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


banner("The overlap relation on three atoms")
B3 = powerset_algebra(3)
overlap = ContactAlgebra(B3, extremal_relation(B3, "smallest"))
for name in AXIOM_NAMES:
    report = check_axiom(overlap, name)
    print(f"  {name:4} {'pass' if report.ok else 'FAIL'}")
print("  dimension:", dim_a(query(overlap, n_cap=1)).value)

banner("The six-cycle: adjacency contact on a ring of atoms")
c6 = cycle_algebra(6)
for name in ("C5", "C6", "LL5", "LL6"):
    report = check_axiom(c6, name)
    tail = ""
    if not report.ok:
        tail = "  witness: " + ", ".join(repr(w) for w in report.witness)
    print(f"  {name:4} {'pass' if report.ok else 'FAIL'}{tail}")

result = dim_a(query(c6, n_cap=1))
print("  dim_leq verdicts:", result.verdicts)
print("  value at cap 1:", result.value, "(every level fails)")

banner("Weight and pi-weight of the six-cycle")
L6 = nca_as_lca(c6)
w = algebra_weight(L6)
print("  minimum base size:", w.size)
print("  one base:", sorted(repr(e) for e in w.base))
print("  minimum dense size:", pi_weight(c6.algebra))

banner("Contact induced by a subalgebra")
full = max(all_subalgebras(B3), key=lambda s: len(s.members))
induced = rho_from_subalgebra(B3, full)
print("  full subalgebra: rows", induced.structure.rows, "(the overlap rows)")
proper = generated_subalgebra(B3, [B3.element(0b011)])
induced = rho_from_subalgebra(B3, proper)
print("  proper subalgebra from {0,1}: rows", induced.structure.rows)
print("  failed axioms:", induced.failed_axioms)

banner("Products and relative algebras")
rel = relative_lca(L6, L6.algebra.element(0b000111))
print("  six-cycle below the arc {0,1,2}: rows", rel.lca.ca.contact.rows)
print("  (a path: the wrap-around contact is gone)")
B2 = powerset_algebra(2)
L2 = nca_as_lca(ContactAlgebra(B2, extremal_relation(B2, "smallest")))
pair = product_lca([rel.lca, L2])
print("  product with a two-atom overlap algebra:", pair.lca.algebra.atom_count, "atoms")
print("  blockwise rows:", pair.lca.ca.contact.rows)
rep = check_lca_axioms(pair.lca)
verdict = "pass" if rep.ok else f"{rep.axiom} fails, inherited from the path factor"
print("  bounded-ideal axioms on the product:", verdict)
