"""The atom limit sits at the contact bundles, not at the axioms.

Every axiom, LC1-LC3 and connectedness are decided on the atoms, so they
answer up to the 24-atom algebra cap without building the 2^k closure
table. The bundles (is_contact and the rest) still refuse more than ten
atoms, because the weight, base and completion searches behind them are
exponential; each entry that sits behind a bundle keeps that refusal.
"""

import pytest

from contactalg import (
    AXIOM_NAMES,
    LCA_AXIOM_NAMES,
    ContactAlgebra,
    ContactStructure,
    ValidationError,
    algebra_weight,
    check_axiom,
    check_lca_axiom,
    check_relative_monotonicity,
    cycle_algebra,
    generated_subalgebra,
    identity_completion,
    is_connected,
    is_dv_dense,
    minimal_base_within,
    nca_as_lca,
    powerset_algebra,
    rho_from_subalgebra,
    zero_dim_criterion,
)


def _no_table(self):
    raise AssertionError("closure table built")


GATED = {
    "is_contact": lambda ca: ca.is_contact,
    "is_valid": lambda ca: nca_as_lca(ca).is_valid(),
    "algebra_weight": lambda ca: algebra_weight(nca_as_lca(ca)),
    "minimal_base_within": lambda ca: minimal_base_within(nca_as_lca(ca), [ca.algebra.one]),
    "is_dv_dense": lambda ca: is_dv_dense(nca_as_lca(ca), [ca.algebra.one]),
    "identity_completion": lambda ca: identity_completion(nca_as_lca(ca)),
    "zero_dim_criterion": lambda ca: zero_dim_criterion(nca_as_lca(ca)),
    "check_relative_monotonicity": lambda ca: check_relative_monotonicity(
        nca_as_lca(ca), ca.algebra.one
    ),
    "rho_from_subalgebra": lambda ca: rho_from_subalgebra(
        ca.algebra, generated_subalgebra(ca.algebra, [ca.algebra.element(1)])
    ),
}


@pytest.mark.parametrize("entry", sorted(GATED))
def test_entries_behind_the_bundles_refuse_eleven_atoms(entry):
    with pytest.raises(ValidationError, match="11 atoms"):
        GATED[entry](cycle_algebra(11))


def test_rho_from_subalgebra_refuses_before_any_table(monkeypatch):
    parent = powerset_algebra(24)
    sub = generated_subalgebra(parent, [parent.element(0b101)])
    monkeypatch.setattr(ContactStructure, "closure_table", _no_table)
    with pytest.raises(ValidationError, match="24 atoms"):
        rho_from_subalgebra(parent, sub)


@pytest.mark.parametrize("entry", ["is_dv_dense", "minimal_base_within"])
def test_base_checks_refuse_before_any_table(monkeypatch, entry):
    monkeypatch.setattr(ContactStructure, "closure_table", _no_table)
    with pytest.raises(ValidationError, match="24 atoms"):
        GATED[entry](cycle_algebra(24))


RING_ENDS = 1 | 1 << 1 | 1 << 23
RING_TRANSVERSAL = sum(1 << i for i in range(0, 24, 3))


@pytest.mark.parametrize(
    "empty, failures, connected",
    [
        (
            False,
            {
                "C5": (1, 1 << 2),
                "C6": (RING_TRANSVERSAL,),
                "LL5": (1, RING_ENDS),
                "LL6": (1,),
                "LC1": (1, RING_ENDS),
                "LC3": (1,),
            },
            True,
        ),
        (True, {"C3": (1,), "LL1": (1, 0)}, False),
    ],
)
def test_axioms_on_24_atoms_read_no_closure_table(monkeypatch, empty, failures, connected):
    """All 15 contact axioms, LC1-LC3 and is_connected on the 24-atom
    ring and on the empty relation on 24 atoms, with the closure table
    out of reach."""
    monkeypatch.setattr(ContactStructure, "closure_table", _no_table)
    ca = cycle_algebra(24)
    if empty:
        ca = ContactAlgebra(ca.algebra, ContactStructure(ca.algebra, [0] * 24))
    L = nca_as_lca(ca)
    reports = [check_axiom(ca, name) for name in AXIOM_NAMES]
    reports += [check_lca_axiom(L, name) for name in LCA_AXIOM_NAMES]
    found = {r.axiom: tuple(x.mask for x in r.witness) for r in reports if not r.ok}
    assert found == failures
    assert is_connected(ca) is connected
