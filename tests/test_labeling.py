import itertools
from fractions import Fraction

import pytest

import dnagraph.labeling
from dnagraph import (Digraph, InvalidInputError, InvalidParameterError, Labeling, find_dna_violation,
                      find_full_violation, find_quasi_violation, format_label,
                      format_labeling, label_chorded_cycle, make_dicycle, make_ladder,
                      overlap_merge, parse_labeling)
from dnagraph.labeling import _decode


# the first error of each text, as the tuple-label reader reported it
FIRST_ERRORS = [
    ("12 2\na\t1 2\nb\t1 0\n", InvalidInputError, "label for b uses symbols outside 1..12"),
    ("12 2\na\t1 13\n", InvalidInputError, "label for a uses symbols outside 1..12"),
    ("12 2\na\t1 2\nb\tx 1\n", ValueError, "invalid literal for int() with base 10: 'x'"),
    ("12 2\na\t1.0 1\n", ValueError, "invalid literal for int() with base 10: '1.0'"),
    ("12 3\na\t1 2 3\nb\t1 2\n", InvalidInputError, "label for b has length 2, expected k=3"),
    ("12 2\na\t1 2\na\t2 1\n", InvalidInputError, "vertex a labeled twice"),
    ("12 2\na\t1 2\nb\t12 0 x\n", ValueError, "invalid literal for int() with base 10: 'x'"),
    # two faults: the first one read is raised
    ("12 2\na\t1 0\na\t2 1\n", InvalidInputError, "label for a uses symbols outside 1..12"),
    ("0 2\na\t1 1\na\t1 1\n", InvalidInputError, "alpha must be a positive integer"),
    ("12 2\na\t1 2\nb\tx 1\nc\t1 1\na\t2 2\n", ValueError,
     "invalid literal for int() with base 10: 'x'"),
    ("12 2\na\t1 2\na\t2 1\nb\t1 0\n", InvalidInputError, "vertex a labeled twice"),
]


def cycle_labeling(alpha, labels):
    d = make_dicycle(len(labels))
    return d, Labeling(alpha, len(labels[0]), {f"v{i+1}": lab for i, lab in enumerate(labels)})


class TestLabelingType:
    def test_rejects_k_one(self):
        with pytest.raises(InvalidInputError):
            Labeling(4, 1, {"a": (1,)})

    def test_rejects_symbol_out_of_range(self):
        with pytest.raises(InvalidInputError):
            Labeling(3, 2, {"a": (1, 4)})

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidInputError):
            Labeling(3, 3, {"a": (1, 2)})

    @pytest.mark.parametrize("raw", [(1.9, 2.2), (1, 2.5), [Fraction(3, 2), 2]])
    def test_rejects_a_symbol_that_is_not_a_whole_number(self, raw):
        # int() alone would store (1.9, 2.2) as the label (1, 2)
        with pytest.raises(InvalidInputError,
                           match="^label for a uses a symbol that is not an integer$"):
            Labeling(4, 2, {"a": raw})

    @pytest.mark.parametrize("raw", [(1, 2), [1, 2], (True, 2), ("1", "2"), "12", (1.0, 2)])
    def test_keeps_whole_symbols(self, raw):
        assert Labeling(4, 2, {"a": raw}).label_of("a") == (1, 2)

    def test_rejects_an_int_label_at_once(self):
        # an int is no symbol sequence: nothing is built from its value first
        with pytest.raises(TypeError):
            Labeling(2, 2, {"a": (1, 2), "b": 10 ** 12})

    @pytest.mark.parametrize("name", ["a\tb", " a", "", "a b"])
    def test_names_follow_the_digraph_name_rule(self, name):
        # the text format could not carry these: "a\tb" read back as a bad
        # symbol and " a" as "a"
        with pytest.raises(InvalidParameterError,
                           match=r"vertex name .* is empty or contains whitespace"):
            Labeling(2, 2, {"c": (2, 1), name: (1, 2)})

    def test_label_of_decodes_one_label(self, monkeypatch):
        decoded = []

        def counting(code, alpha, k):
            decoded.append(code)
            return _decode(code, alpha, k)

        words = itertools.islice(itertools.product(range(1, 5), repeat=4), 100)
        lab = Labeling(4, 4, dict(zip(map("x{}".format, itertools.count()), words)))
        monkeypatch.setattr(dnagraph.labeling, "_decode", counting)
        assert lab.label_of("x99") == (2, 3, 1, 4) and decoded == [99]

    def test_format_label(self):
        assert format_label((1, 2, 3)) == "123"

    def test_overlap_merge(self):
        assert overlap_merge((2, 1, 1), (1, 1, 4)) == (2, 1, 1, 4)
        with pytest.raises(InvalidInputError):
            overlap_merge((1, 2), (1, 2))


class TestVerifyDistinct:
    def test_catalogue_row_distinct(self):
        res = label_chorded_cycle(6)
        assert find_quasi_violation(res.digraph, res.labeling) is None

    def test_constant_labels_clash(self):
        d, lab = cycle_labeling(2, [(1, 1, 1), (1, 1, 1), (1, 1, 1)])
        assert find_quasi_violation(d, lab) == "vertices v1 and v2 share label 111"

    def test_partial_labeling_rejected(self):
        d = make_dicycle(3)
        lab = Labeling(2, 2, {"v1": (1, 1), "v2": (1, 2)})
        with pytest.raises(InvalidInputError):
            find_quasi_violation(d, lab)
        extra = Labeling(2, 2, {"v1": (1, 1), "v2": (1, 2), "v3": (2, 1), "v9": (2, 2)})
        with pytest.raises(InvalidInputError):
            find_quasi_violation(d, extra)


class TestVerifyQuasi:
    def test_shifted_triangle(self):
        d, lab = cycle_labeling(2, [(1, 1), (1, 2), (2, 1)])
        assert find_quasi_violation(d, lab) is None

    def test_broken_shift(self):
        d, lab = cycle_labeling(2, [(1, 1), (2, 2), (2, 1)])
        assert "v1" in find_quasi_violation(d, lab)

    def test_catalogue_rows_quasi(self):
        for n in (6, 12):
            res = label_chorded_cycle(n)
            assert find_quasi_violation(res.digraph, res.labeling) is None

    def test_alphabet_permutation_invariance(self):
        res = label_chorded_cycle(8)
        swapped = res.labeling.relabeled({1: 3, 2: 1, 3: 2, 4: 4})
        assert find_quasi_violation(res.digraph, swapped) is None


class TestVerifyFull:
    def test_catalogue_row_is_quasi_only(self):
        # the n=6 row overlaps 221 -> 112 without that arc existing
        res = label_chorded_cycle(6)
        assert find_quasi_violation(res.digraph, res.labeling) is None
        assert "is not an arc" in find_full_violation(res.digraph, res.labeling)

    def test_single_vertex(self):
        d = Digraph(["solo"], [])
        lab = Labeling(2, 2, {"solo": (1, 2)})
        assert find_full_violation(d, lab) is None

    def test_full_on_small_cycle(self):
        # windows of the cyclic string 1123: every overlap is one of the arcs
        d, lab = cycle_labeling(3, [(1, 1, 2), (1, 2, 3), (2, 3, 1), (3, 1, 1)])
        assert find_full_violation(d, lab) is None

    def test_rename_invariance(self):
        d, lab = cycle_labeling(3, [(1, 1, 2), (1, 2, 3), (2, 3, 1), (3, 1, 1)])
        renamed = Digraph([f"n_{v}" for v in d.vertices],
                          [(f"n_{t}", f"n_{h}") for t, h in d.arcs])
        relab = Labeling(lab.alpha, lab.k,
                         {f"n_{v}": lab.label_of(v) for v in d.vertices})
        assert find_full_violation(renamed, relab) is None


class TestDnaCertificate:
    def test_alphabet_bound(self):
        d = Digraph(["solo"], [])
        assert find_dna_violation(d, Labeling(5, 2, {"solo": (1, 5)})) is not None
        assert find_dna_violation(d, Labeling(4, 2, {"solo": (1, 2)})) is None

    def test_printed_ladder_labeling(self):
        lab = Labeling(3, 4, {
            "t0": (2, 1, 1, 1), "t1": (1, 1, 1, 2), "t2": (1, 1, 2, 3),
            "b0": (1, 2, 1, 1), "b1": (1, 1, 2, 1), "b2": (3, 1, 1, 2),
        })
        assert find_dna_violation(make_ladder(3), lab) is None


class TestTextFormat:
    def test_round_trip(self):
        res = label_chorded_cycle(9)
        text = format_labeling(res.labeling)
        assert text.splitlines()[0] == "4 3"
        again = parse_labeling(text)
        assert again == res.labeling

    def test_sorted_by_vertex_name(self):
        lab = Labeling(2, 2, {"b": (1, 2), "a": (1, 1)})
        lines = format_labeling(lab).splitlines()
        assert lines[1].startswith("a\t") and lines[2].startswith("b\t")

    def test_duplicate_name_after_whitespace_strip(self):
        with pytest.raises(InvalidInputError):
            parse_labeling("2 2\nx\t1 1\nx \t1 2\n")

    def test_bad_header(self):
        with pytest.raises(InvalidInputError):
            parse_labeling("oops\n")

    def test_symbols_of_two_digits_round_trip(self):
        lab = Labeling(12, 3, {"a": (10, 11, 12), "b": (11, 12, 1), "c": (12, 1, 10)})
        text = format_labeling(lab)
        assert text == "12 3\na\t10 11 12\nb\t11 12 1\nc\t12 1 10\n"
        assert parse_labeling(text) == lab
        assert parse_labeling(text).label_of("c") == (12, 1, 10)

    @pytest.mark.parametrize("text, error, message", FIRST_ERRORS)
    def test_first_error_is_pinned(self, text, error, message):
        with pytest.raises(error) as exc:
            parse_labeling(text)
        assert type(exc.value) is error and str(exc.value) == message

    def test_parse_reads_no_block_past_the_first_bad_row(self, monkeypatch):
        # two rows a block and one line a read: the header and the block of
        # the bad row b are three reads; the repeated a comes later
        monkeypatch.setattr(dnagraph.labeling, "_BLOCK_ROWS", 2)
        lines = ["12 2\n", "a\t1 2\n", "b\t1 0\n", "c\t1 1\n", "a\t2 2\n"]
        reads = []

        class OneLineARead:
            def readlines(self, hint):
                reads.append(hint)
                assert len(reads) <= 3, "read past the block of the first bad row"
                return lines[len(reads) - 1:len(reads)]

        with pytest.raises(InvalidInputError, match=r"^label for b uses symbols outside 1\.\.12$"):
            parse_labeling(OneLineARead())
        assert len(reads) == 3

    @pytest.mark.parametrize("alpha", [4, 12])
    def test_parse_time_is_linear_in_the_rows(self, monkeypatch, alpha):
        # symbols of two digits (alpha 12) are read row by row: a parse that
        # rebuilt the names of earlier blocks for each block would hash each
        # name once a block; a linear parse hashes it a bounded number of times
        monkeypatch.setattr(dnagraph.labeling, "_BLOCK_ROWS", 16)
        hashes = [0]

        class Name(str):
            def __hash__(self):
                hashes[0] += 1
                return str.__hash__(self)

        rows = 800
        names = [Name(f"v{i}") for i in range(rows)]
        text = f"{alpha} 3\n" + "".join(f"{v}\t{alpha} 1 {i % alpha + 1}\n" for i, v in enumerate(names))
        hashes[0] = 0
        lab = parse_labeling(text, names=names)
        assert len(lab.codes) == rows and lab.label_of("v799") == (alpha, 1, 799 % alpha + 1)
        assert hashes[0] <= 4 * rows

    def test_given_names_key_the_labeling_and_change_nothing_else(self):
        texts = [text for text, _, _ in FIRST_ERRORS]
        texts += ["2 2\nx\t1 1\nx \t1 2\n", "oops\n", "", "12 3\nab\t10 11 12\nb\t11 12 1\n",
                  format_labeling(label_chorded_cycle(9).labeling)]
        # names built at run time: a key of two or more characters is one of
        # them only if the parse took it from names
        names = ["".join(chars) for chars in ("a", "ab", "v1", "v10", "x")]
        given_string = dict(zip(names, names))
        for text in texts:
            outcomes = []
            for given in ((), names):
                try:
                    outcomes.append(parse_labeling(text, names=given))
                except ValueError as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1], text
            if isinstance(outcomes[1], Labeling):
                assert all(v is given_string[v] for v in outcomes[1].codes if v in names), text


@pytest.mark.parametrize("alpha", [2, 3, 4, 5, 12])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_codes_agree_with_tuple_slicing(alpha, k):
    # product lists the words in lexicographic order, which is the order of
    # their base-alpha codes: the code of a word is its index here
    words = list(itertools.product(range(1, alpha + 1), repeat=k))
    shorter = {w: i for i, w in enumerate(itertools.product(range(1, alpha + 1), repeat=k - 1))}
    lab = Labeling(alpha, k, dict(zip(map("x{}".format, itertools.count()), words)))
    codes = list(lab.codes.values())
    assert codes == list(range(alpha ** k))
    assert [_decode(c, alpha, k) for c in codes] == words
    window = alpha ** (k - 1)
    assert [c // alpha for c in codes] == [shorter[w[:-1]] for w in words]
    assert [c % window for c in codes] == [shorter[w[1:]] for w in words]
    # each word t merged with its rotation h, which it overlaps: the code of
    # a longer word m is the code of m[:-1] extended by one digit
    heads = [w[1:] + w[:1] for w in words]
    rotated = [shorter[w[1:]] * alpha + w[0] - 1 for w in words]
    merged = map(overlap_merge, words, heads)
    assert ([t * alpha + h % alpha for t, h in zip(codes, rotated)]
            == [c * alpha + m[-1] - 1 for c, m in zip(codes, merged)])
