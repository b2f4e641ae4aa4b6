import pytest

from wellcover.catalog import certificate
from wellcover.classify import is_in_w, is_one_well_covered, is_well_covered
from wellcover.constructions import (
    CoronaFamily,
    concatenate,
    concatenation_blocks,
    corona,
    corona_blocks,
    corona_uniform,
    join,
)
from wellcover.graph import (
    complete,
    cycle,
    empty_graph,
    path,
)
from wellcover.independence import (
    has_k_disjoint_maximum_independent_sets,
    independence_number,
    maximum_independent_sets,
)


def iso(g, h):
    return certificate(g.adj) == certificate(h.adj)


class TestCorona:
    def test_fig_instances(self):
        p2 = path(2)
        g1 = corona(CoronaFamily(p2, (complete(1), empty_graph(2))))
        assert g1.n == 5 and not is_well_covered(g1)
        g2 = corona(CoronaFamily(p2, (complete(1), complete(2))))
        assert is_well_covered(g2) and not is_in_w(g2, 2)
        g3 = corona(CoronaFamily(p2, (complete(2), complete(3))))
        assert g3.n == 7 and is_one_well_covered(g3)

    def test_alpha_is_sum_of_attachment_alphas(self):
        fam = CoronaFamily(path(3), (complete(2), empty_graph(2), complete(3)))
        assert independence_number(corona(fam)) == 1 + 2 + 1

    def test_pendant_corona_two_disjoint_maximum_sets_iff_bipartite(self):
        assert has_k_disjoint_maximum_independent_sets(
            corona_uniform(path(3), complete(1)), 2
        )[0]
        assert not has_k_disjoint_maximum_independent_sets(
            corona_uniform(cycle(3), complete(1)), 2
        )[0]

    def test_labeling_contract(self):
        fam = CoronaFamily(path(2), (complete(2), complete(3)))
        g = corona(fam)
        blocks = corona_blocks(fam)
        assert blocks == [[2, 3], [4, 5, 6]]
        assert g.has_edge(0, 2) and g.has_edge(0, 3) and g.has_edge(1, 6)
        assert not g.has_edge(0, 4)

    def test_family_validation(self):
        with pytest.raises(ValueError):
            CoronaFamily(path(2), (complete(1),))
        with pytest.raises(ValueError):
            CoronaFamily(path(2), (complete(1), empty_graph(0)))

    def test_empty_base(self):
        assert corona(CoronaFamily(empty_graph(0), ())).n == 0


class TestJoin:
    def test_join_of_edges_is_k4(self):
        assert certificate(join([complete(2), complete(2)]).adj) == certificate(complete(4).adj)
        assert is_in_w(join([complete(2), complete(2)]), 2)

    def test_well_covered_but_not_level_two(self):
        g = join([cycle(4), cycle(4)])
        assert is_well_covered(g) and not is_in_w(g, 2)

    def test_alpha_mismatch_breaks_well_coveredness(self):
        assert not is_well_covered(join([cycle(4), complete(2)]))

    def test_alpha_is_maximum(self):
        assert independence_number(join([cycle(4), cycle(6), complete(3)])) == 3

    def test_needs_operands(self):
        with pytest.raises(ValueError):
            join([])


class TestConcatenate:
    def test_k2_c4(self):
        g = concatenate(complete(2), cycle(4), 0)
        assert g.n == 8
        assert independence_number(g) == 4
        assert not is_well_covered(g)

    def test_k2_c5(self):
        g = concatenate(complete(2), cycle(5), 0)
        assert is_well_covered(g) and not is_in_w(g, 2)

    def test_complete_copies_reduce_to_corona(self):
        for p in (2, 3, 4):
            for v in range(p):
                lhs = concatenate(path(3), complete(p), v)
                rhs = corona_uniform(path(3), complete(p - 1))
                assert iso(lhs, rhs), (p, v)

    def test_single_vertex_copy_is_identity(self):
        g = cycle(5)
        assert concatenate(g, complete(1), 0) == g

    def test_alpha_formula_branches(self):
        for base in (complete(2), path(3), cycle(3)):
            for h in (cycle(4), cycle(5), path(4), complete(3), path(2)):
                for v in range(h.n):
                    got = independence_number(concatenate(base, h, v))
                    omega = maximum_independent_sets(h)
                    ah = independence_number(h)
                    if all(s >> v & 1 for s in omega):
                        expected = base.n * (ah - 1) + independence_number(base)
                    else:
                        expected = base.n * ah
                    assert got == expected

    def test_labeling_contract(self):
        blocks = concatenation_blocks(complete(2), cycle(4), 1)
        assert blocks == [[0, 2, 3, 4], [1, 5, 6, 7]]
        g = concatenate(complete(2), cycle(4), 1)
        assert g.has_edge(0, 1)  # base edge survives

    def test_vertex_validation(self):
        with pytest.raises(ValueError):
            concatenate(complete(2), cycle(4), 9)
