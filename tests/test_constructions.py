import hashlib
import itertools

import pytest

from dnagraph import (CONSTRUCTIONS, ConstructionFailure, InvalidParameterError, UnsupportedParameterError, find_quasi_violation,
                      format_digraph_text, format_label, format_labeling, label_chorded_cycle,
                      label_double_cycle, label_infinity_c3, label_infinity_even,
                      label_infinity_odd, label_propeller, label_windmill, make_infinity)
from dnagraph.acceptance import _small_fixtures
from dnagraph.constructions import _label_cycles


def row_of(result, prefix, indices):
    lab = result.labeling
    names = [("v2" if i == 2 else f"{prefix}{i}") for i in indices]
    return [format_label(lab.label_of(v)) for v in names]


def all_labels(result):
    return {format_label(lab) for lab in result.labeling.assignment.values()}


class TestChordedCycle:
    def test_row_7(self):
        res = label_chorded_cycle(7)
        assert row_of(res, "v", range(1, 8)) == ["311", "111", "112", "122", "222", "223", "231"]

    def test_row_10(self):
        res = label_chorded_cycle(10)
        assert row_of(res, "v", range(1, 11)) == [
            "211", "111", "112", "122", "222", "223", "233", "333", "332", "321"]

    def test_row_14_last_label(self):
        res = label_chorded_cycle(14)
        assert format_label(res.labeling.label_of("v14")) == "221"

    @pytest.mark.parametrize("n", range(6, 15))
    def test_rows_are_quasi_4_3(self, n):
        res = label_chorded_cycle(n)
        assert res.labeling.alpha == 4 and res.labeling.k == 3
        assert find_quasi_violation(res.digraph, res.labeling) is None

    @pytest.mark.parametrize("n", [4, 5, 15, 16])
    def test_outside_catalogue(self, n):
        with pytest.raises(UnsupportedParameterError):
            label_chorded_cycle(n)


class TestInfinityEven:
    def test_full_length_n4(self):
        res = label_infinity_even(4, 13)
        assert row_of(res, "v", range(1, 5)) == ["111", "112", "121", "211"]
        assert row_of(res, "u", range(1, 14)) == [
            "311", "112", "122", "222", "223", "233", "334",
            "344", "444", "443", "433", "333", "331"]

    def test_minimum_cycle_u_row(self):
        res = label_infinity_even(4, 4)
        assert row_of(res, "u", range(1, 5)) == ["311", "112", "123", "231"]

    def test_drawn_c4c5(self):
        res = label_infinity_even(4, 5)
        assert row_of(res, "u", range(1, 6)) == ["311", "112", "123", "233", "331"]

    def test_drawn_c6c7(self):
        res = label_infinity_even(6, 7)
        assert row_of(res, "u", range(1, 8)) == [
            "3111", "1112", "1123", "1233", "2333", "3331", "3311"]

    def test_drawn_c6c8_has_constant_window(self):
        labels = all_labels(label_infinity_even(6, 8))
        assert "3333" in labels and len(labels) == 13

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_sweep(self, n):
        for p in range(n, 5 * n // 2 + 4):
            res = label_infinity_even(n, p)
            assert res.labeling.k == n // 2 + 1
            assert find_quasi_violation(res.digraph, res.labeling) is None, (n, p)
            shared = res.labeling.label_of("v2")
            assert shared == (1,) * (n // 2) + (2,)

    @pytest.mark.parametrize("n,p", [(3, 5), (5, 8), (4, 3), (4, 14), (6, 19)])
    def test_bad_parameters(self, n, p):
        with pytest.raises(InvalidParameterError):
            label_infinity_even(n, p)


class TestInfinityOdd:
    def test_full_length_n5(self):
        res = label_infinity_odd(5, 18)
        assert find_quasi_violation(res.digraph, res.labeling) is None
        assert res.digraph.vertex_count == 22

    def test_minimum_p_equals_n(self):
        res = label_infinity_odd(5, 5)
        assert find_quasi_violation(res.digraph, res.labeling) is None

    def test_n7_middle_vertex_label(self):
        # the first middle case carries two interior twos
        res = label_infinity_odd(7, 7)
        assert res.labeling.label_of("v4") == (1, 1, 2, 2, 1)

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_sweep(self, n):
        c = (n + 1) // 2
        for p in range(n, 5 * c + 4):
            res = label_infinity_odd(n, p)
            assert res.labeling.k == c + 1
            assert find_quasi_violation(res.digraph, res.labeling) is None, (n, p)

    @pytest.mark.parametrize("n,p", [(4, 6), (3, 4), (5, 4), (5, 19)])
    def test_bad_parameters(self, n, p):
        with pytest.raises(InvalidParameterError):
            label_infinity_odd(n, p)


class TestInfinityC3:
    def test_full_length(self):
        res = label_infinity_c3(13)
        assert row_of(res, "v", range(1, 4)) == ["211", "112", "121"]
        assert find_quasi_violation(res.digraph, res.labeling) is None

    def test_minimum_cycle(self):
        res = label_infinity_c3(4)
        assert row_of(res, "u", range(1, 5)) == ["311", "112", "123", "231"]

    def test_shared_label(self):
        for p in (4, 9, 13):
            assert label_infinity_c3(p).labeling.label_of("v2") == (1, 1, 2)

    @pytest.mark.parametrize("p", [3, 14])
    def test_bad_parameters(self, p):
        with pytest.raises(InvalidParameterError):
            label_infinity_c3(p)


class TestDoubleCycle:
    def test_n3_seed_labels(self):
        res = label_double_cycle(3)
        assert row_of(res, "v", range(1, 4)) == ["11", "12", "21"]
        assert row_of(res, "u", range(1, 4)) == ["31", "12", "23"]

    def test_n4_uses_k2(self):
        res = label_double_cycle(4)
        assert res.labeling.k == 2 and res.labeling.alpha == 3
        assert find_quasi_violation(res.digraph, res.labeling) is None

    def test_n5_distinct(self):
        res = label_double_cycle(5)
        assert res.labeling.k == 3
        assert len(all_labels(res)) == 9  # nine vertices, one shared
        assert find_quasi_violation(res.digraph, res.labeling) is None

    @pytest.mark.parametrize("n", range(3, 16))
    def test_sweep_alpha3(self, n):
        res = label_double_cycle(n)
        assert res.labeling.alpha == 3
        assert find_quasi_violation(res.digraph, res.labeling) is None

    def test_too_small(self):
        with pytest.raises(InvalidParameterError):
            label_double_cycle(2)


class TestWindmill:
    def test_n3_blades(self):
        res = label_windmill(3)
        assert row_of(res, "v", range(1, 4)) == ["11", "12", "21"]
        assert row_of(res, "u", range(1, 4)) == ["31", "12", "23"]
        assert row_of(res, "w", range(1, 4)) == ["41", "12", "24"]

    def test_n5_second_blade_start(self):
        res = label_windmill(5)
        assert res.labeling.label_of("u1") == (3, 1, 1)

    def test_shared_label_shape(self):
        for n in (3, 6, 9):
            res = label_windmill(n)
            k = (n + 1) // 2
            assert res.labeling.label_of("v2") == (1,) * (k - 1) + (2,)

    @pytest.mark.parametrize("n", range(3, 16))
    def test_sweep(self, n):
        res = label_windmill(n)
        assert res.labeling.alpha == 4 and res.labeling.k == (n + 1) // 2
        assert find_quasi_violation(res.digraph, res.labeling) is None


class TestPropeller:
    def test_drawn_5_5_6(self):
        assert all_labels(label_propeller(5, 5, 6)) == {
            "111", "112", "122", "221", "211",
            "311", "123", "233", "331",
            "411", "124", "244", "444", "441"}

    def test_drawn_5_6_7(self):
        assert all_labels(label_propeller(5, 6, 7)) == {
            "1112", "1122", "1221", "2211", "2111",
            "3111", "1123", "1233", "2331", "3311",
            "4111", "1124", "1244", "2444", "4441", "4411"}

    def test_odd_blade_merge_label(self):
        # a length-5 blade labeled at k=4 carries the merged (1,2,x,1) label
        res = label_propeller(5, 5, 7)
        assert res.labeling.label_of("v4") == (1, 2, 2, 1)
        assert res.labeling.label_of("u4") == (1, 2, 3, 1)

    def test_equal_blades_match_windmill(self):
        prop = label_propeller(6, 6, 6)
        mill = label_windmill(6)
        assert prop.digraph == mill.digraph
        assert prop.labeling == mill.labeling

    @pytest.mark.parametrize("n", range(4, 10))
    def test_sweep(self, n):
        for p in (n, n + 1, n + 2):
            for q in (n, n + 1, n + 2):
                res = label_propeller(n, p, q)
                assert find_quasi_violation(res.digraph, res.labeling) is None, (n, p, q)
                assert res.labeling.k in ((n + 1) // 2, (n + 1) // 2 + 1)

    @pytest.mark.parametrize("n,p,q", [(3, 3, 3), (4, 7, 4), (5, 5, 4), (6, 6, 9)])
    def test_bad_parameters(self, n, p, q):
        with pytest.raises(InvalidParameterError):
            label_propeller(n, p, q)


def test_catalogue_fixtures_digest():
    """Every labeling the acceptance sweep builds, byte for byte."""
    h = hashlib.sha256()
    count = 0
    for r in _small_fixtures():
        text = r.tag + "\n" + format_digraph_text(r.digraph) + format_labeling(r.labeling)
        h.update(text.encode("utf-8"))
        count += 1
    assert count == 208
    assert h.hexdigest() == "dbf6c27f1f538e0f56b59db8aaca9ee4355e2c5b8291453c206350bbb28d7f0f"


def test_catalogue_is_pinned():
    # every CONSTRUCTIONS entry over a grid of parameters, including the ones
    # it refuses: one sha256 over each member's digraph and labeling text, or
    # its error type and message
    grid = {"n": range(1, 21), "p": range(1, 31), "q": range(1, 23)}
    digest = hashlib.sha256()
    members = built = 0
    for tag, (params, label) in CONSTRUCTIONS.items():
        for values in itertools.product(*(grid[name] for name in params)):
            try:
                r = label(*values)
                got = format_digraph_text(r.digraph) + format_labeling(r.labeling)
                built += 1
            except InvalidParameterError as exc:
                got = (type(exc).__name__, str(exc))
            digest.update(repr((tag, values, got)).encode())
            members += 1
    assert (members, built) == (14490, 472)
    assert digest.hexdigest() == "0a5a68e9a99ec6459d01c1f5dc74e9f056742957afb2a46c3660f8a68a490802"


class TestLabelCyclesGuard:
    def test_repeated_label_fails_self_verification(self):
        with pytest.raises(ConstructionFailure,
                           match="failed self-verification: vertices v1 and u1 share label 111"):
            _label_cycles(make_infinity(4, 4), ((1, 1, 1, 2), (1, 1, 1, 2)), 4, 3, "infinity-even")

    def test_cycles_disagree_on_shared_vertex(self):
        with pytest.raises(ConstructionFailure,
                           match="cycles disagree on the shared vertex label"):
            _label_cycles(make_infinity(4, 4), ((1, 1, 1, 2), (2, 1, 1, 1)), 4, 3, "infinity-even")
