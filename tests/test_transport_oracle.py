"""Contact transport against the naive pair sweep: check_ca_morphism and
check_lca_embedding on verdict and witness, and is_ca_isomorphism on
verdict, for every homomorphism from an algebra of at most 2 atoms to one
of at most 3, under every pair of atom relations."""

from contactalg import (
    ContactAlgebra,
    LcaMorphismTable,
    all_contact_structures,
    all_homomorphisms,
    check_ca_morphism,
    check_lca_embedding,
    is_ca_isomorphism,
    nca_as_lca,
    powerset_algebra,
)

from naive import naive_transport_failures


def every_relation(k: int):
    alg = powerset_algebra(k)
    return alg, [nca_as_lca(ContactAlgebra(alg, s)) for s in all_contact_structures(alg, False)]


def masks(witness) -> tuple[int, ...]:
    return tuple(x.mask for x in witness)


def test_transport_matches_naive_sweep():
    relations = {k: every_relation(k) for k in range(4)}
    cases = preserve_fails = reflect_fails = isomorphisms = 0
    for ks in range(3):
        src_alg, sources = relations[ks]
        for kt in range(4):
            tgt_alg, targets = relations[kt]
            homs = list(all_homomorphisms(src_alg, tgt_alg))
            for h in homs:
                bijective = len(set(h.mapping)) == src_alg.size == tgt_alg.size
                for S in sources:
                    for T in targets:
                        preserve, reflect = naive_transport_failures(h, S.ca, T.ca)
                        for mode, bad in (("preserves", preserve), ("reflects", reflect)):
                            report = check_ca_morphism(h, S.ca, T.ca, mode)
                            assert (report.ok, masks(report.witness)) == (bad is None, bad or ())
                        emb = check_lca_embedding(LcaMorphismTable(S, T, h.mapping))
                        assert (emb.preserves, emb.reflects) == (preserve is None, reflect is None)
                        first = min((bad for bad in (preserve, reflect) if bad), default=())
                        assert masks(emb.witness) == first
                        iso = bijective and preserve is None and reflect is None
                        assert is_ca_isomorphism(h, S.ca, T.ca) == iso
                        cases += 1
                        preserve_fails += preserve is not None
                        reflect_fails += reflect is not None
                        isomorphisms += iso
    assert cases == 67_703
    assert min(preserve_fails, reflect_fails, isomorphisms, cases - preserve_fails) > 0
