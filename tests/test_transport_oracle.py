"""Contact transport against the naive pair sweep: check_ca_morphism and
check_lca_embedding on verdict and witness, and is_ca_isomorphism on
verdict, for every homomorphism from an algebra of at most 2 atoms to one
of at most 3, under every pair of atom relations, and for seeded
homomorphisms from 3 and 4 atoms. The bounded laws of
check_lca_embedding against the naive element loop, for every
homomorphism from at most 3 atoms into at most 3, under every pair of
bounded tops."""

import itertools
import random

from contactalg import (
    BooleanHomomorphism,
    ContactAlgebra,
    ContactStructure,
    Element,
    LcaMorphismTable,
    LocalContactAlgebra,
    all_contact_structures,
    all_homomorphisms,
    check_ca_morphism,
    check_lca_embedding,
    extremal_relation,
    is_ca_isomorphism,
    nca_as_lca,
    powerset_algebra,
)

from conftest import random_reflexive_symmetric
from naive import naive_bounded_transport, naive_transport_failures


def every_relation(k: int):
    alg = powerset_algebra(k)
    return alg, [nca_as_lca(ContactAlgebra(alg, s)) for s in all_contact_structures(alg, False)]


def masks(witness) -> tuple[int, ...]:
    return tuple(x.mask for x in witness)


def compare(h, S, T):
    """Assert every transport report on h against the naive sweep, and
    return the naive first failures and the isomorphism verdict."""
    preserve, reflect = naive_transport_failures(h, S.ca, T.ca)
    for mode, bad in (("preserves", preserve), ("reflects", reflect)):
        report = check_ca_morphism(h, S.ca, T.ca, mode)
        assert (report.ok, masks(report.witness)) == (bad is None, bad or ())
    emb = check_lca_embedding(LcaMorphismTable(S, T, h.mapping))
    assert (emb.preserves, emb.reflects) == (preserve is None, reflect is None)
    first = min((bad for bad in (preserve, reflect) if bad), default=())
    assert masks(emb.witness) == first
    bijective = len(set(h.mapping)) == h.source.size == h.target.size
    iso = bijective and preserve is None and reflect is None
    assert is_ca_isomorphism(h, S.ca, T.ca) == iso
    return preserve, reflect, iso


def test_transport_matches_naive_sweep():
    relations = {k: every_relation(k) for k in range(4)}
    cases = preserve_fails = reflect_fails = isomorphisms = 0
    for ks in range(3):
        src_alg, sources = relations[ks]
        for kt in range(4):
            tgt_alg, targets = relations[kt]
            homs = list(all_homomorphisms(src_alg, tgt_alg))
            for h in homs:
                for S in sources:
                    for T in targets:
                        preserve, reflect, iso = compare(h, S, T)
                        cases += 1
                        preserve_fails += preserve is not None
                        reflect_fails += reflect is not None
                        isomorphisms += iso
    assert cases == 67_703
    assert min(preserve_fails, reflect_fails, isomorphisms, cases - preserve_fails) > 0


def seeded_lca(k: int, rng: random.Random) -> LocalContactAlgebra:
    """A reflexive symmetric relation or an arbitrary one, at random,
    under a random bounded top."""
    if rng.random() < 0.5:
        s = random_reflexive_symmetric(k, rng)
    else:
        s = ContactStructure(powerset_algebra(k), [rng.randrange(1 << k) for _ in range(k)])
    alg = s.algebra
    return LocalContactAlgebra(ContactAlgebra(alg, s), Element(alg, rng.randrange(alg.size)))


def test_transport_matches_naive_sweep_from_three_and_four_atoms():
    """Seeded homomorphisms from 3 and 4 atoms into 3 to 5, with first
    failures at atoms other than atom 0 among them."""
    rng = random.Random(24)
    later = {"preserves": 0, "reflects": 0}
    for ks, kt in ((3, 3), (3, 4), (4, 4), (4, 5)):
        for _ in range(60):
            S, T = seeded_lca(ks, rng), seeded_lca(kt, rng)
            atom_map = [rng.randrange(ks) for _ in range(kt)]
            h = BooleanHomomorphism.from_atom_map(S.algebra, T.algebra, atom_map)
            for mode, bad in zip(later, compare(h, S, T)[:2]):
                if bad is not None:
                    assert all(m & (m - 1) == 0 != m for m in bad), bad
                    later[mode] += bad[0] > 1
    assert min(later.values()) > 0


def under_every_top(k: int) -> list[LocalContactAlgebra]:
    alg = powerset_algebra(k)
    ca = ContactAlgebra(alg, extremal_relation(alg, "smallest"))
    return [LocalContactAlgebra(ca, Element(alg, u)) for u in range(alg.size)]


def test_bounded_laws_match_naive_loop():
    lcas = {k: under_every_top(k) for k in range(4)}
    verdicts = set()
    for ks, kt in itertools.product(range(4), repeat=2):
        for h in all_homomorphisms(lcas[ks][0].algebra, lcas[kt][0].algebra):
            for S, T in itertools.product(lcas[ks], lcas[kt]):
                t = LcaMorphismTable(S, T, h.mapping)
                emb = check_lca_embedding(t)
                verdict = (emb.bounded_preserved, emb.bounded_reflected)
                assert verdict == naive_bounded_transport(t)
                verdicts.add(verdict)
    assert len(verdicts) == 4
