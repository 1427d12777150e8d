import gc
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridcycles import alphabet as al
from gridcycles import transfer as tr

column_words = st.integers(1, 6).flatmap(
    lambda m: st.sampled_from(al.enumerate_column_words(m))
)
letter_words = st.text(alphabet="abcdef", min_size=1, max_size=8)


def test_letter_table_degree_two():
    seen = set()
    for letter in al.LETTERS.values():
        bits = (letter.left, letter.right, letter.up, letter.down)
        assert sum(bits) == 2
        seen.add(bits)
    assert len(seen) == 6  # all six 2-subsets of the directions


def test_outlet_inlet_membership():
    assert {k for k, v in al.LETTERS.items() if v.right} == {"a", "c", "e"}
    assert {k for k, v in al.LETTERS.items() if v.left} == {"d", "e", "f"}
    assert al.LETTERS["b"].up and al.LETTERS["b"].down
    assert al.LETTERS["e"].left and al.LETTERS["e"].right


def test_outlet_and_inlet_read_the_letter_table():
    # every string over the alphabet, not only column words
    for k in range(1, 6):
        for letters in itertools.product(al.LETTER_IDS, repeat=k):
            word = "".join(letters)
            assert al.outlet(word) == "".join("1" if al.LETTERS[x].right else "0" for x in word)
            assert al.inlet(word) == "".join("1" if al.LETTERS[x].left else "0" for x in word)


def test_conversion_examples():
    assert al.horizontal_convert("bb") == "bb"
    assert al.horizontal_convert("ac") == "ac"
    assert al.vertical_convert("bb") == "bb"
    assert al.vertical_convert("ac") == "df"


@given(letter_words)
def test_conversions_are_involutions(w):
    assert al.horizontal_convert(al.horizontal_convert(w)) == w
    assert al.vertical_convert(al.vertical_convert(w)) == w


def test_rotate_examples():
    assert al.rotate("0011", 1) == "0110"
    assert al.rotate("abc", 0) == "abc"
    with pytest.raises(ValueError):
        al.rotate("", 1)


@given(letter_words, st.integers(0, 20))
def test_rotate_cycles(w, k):
    assert al.rotate(w, len(w)) == w
    assert al.rotate(al.rotate(w, k), len(w) - k % len(w)) == w


def test_rotation_commutes_with_reflection():
    # rotating a reflected word is reflecting the co-rotated word
    for m in range(1, 9):
        for w in al.enumerate_column_words(m)[:200]:
            for p in range(m):
                assert al.rotate(al.horizontal_convert(w), p) == al.horizontal_convert(
                    al.rotate(w, m - p)
                )


def test_outlet_inlet_examples():
    assert al.outlet("bb") == "00" and al.inlet("bb") == "00"
    assert al.outlet("ac") == "11" and al.inlet("ac") == "00"


def test_outlet_of_reflection_is_reversed_outlet():
    for m in range(1, 9):
        for w in al.enumerate_column_words(m):
            assert al.outlet(al.horizontal_convert(w)) == al.outlet(w)[::-1]
            assert al.inlet(al.horizontal_convert(w)) == al.inlet(w)[::-1]


def test_enumerate_column_words_small():
    assert al.enumerate_column_words(1) == ["b", "e"]
    assert al.enumerate_column_words(2) == sorted(
        ["ac", "af", "bb", "ca", "cd", "dc", "df", "ee", "fa", "fd"]
    )
    assert len(al.enumerate_column_words(3)) == 26


@pytest.mark.parametrize("m", range(1, 11))
def test_enumerate_column_words_count(m):
    assert len(al.enumerate_column_words(m)) == 3**m + (-1) ** m


@pytest.mark.parametrize("m", range(1, 9))
def test_column_word_lists_are_every_closed_walk_in_order(m):
    # breadth first over the letters in order: every consistent prefix,
    # lexicographic, then the ones that close up
    for letters, words in (
        ("abcdef", al.enumerate_column_words(m)),
        ("abc", al.decode_words(al.column_word_codes(m, "abc"), m)),
        ("bdf", al.decode_words(al.column_word_codes(m, "bdf"), m)),
    ):
        prefixes = list(letters)
        for _ in range(m - 1):
            prefixes = [w + ch for w in prefixes for ch in letters if al.ud_arc(w[-1], ch)]
        assert words == [w for w in prefixes if al.ud_arc(w[-1], w[0])]


def reference_column_words(m, alphabet):
    """The string builder the codes replaced: all cyclically consistent
    words of length m over ``alphabet``, lexicographic, grown level by
    level over a follow table and closed while adding the last letter."""
    letters = sorted(alphabet)
    if m == 1:
        return [x for x in letters if al.ud_arc(x, x)]
    follow = {x: [y for y in letters if al.ud_arc(x, y)] for x in letters}
    words = letters
    for _ in range(m - 2):
        words = [w + y for w in words for y in follow[w[-1]]]
    return [w + y for w in words for y in follow[w[-1]] if al.ud_arc(y, w[0])]


@pytest.mark.parametrize("m", range(1, 11))
@pytest.mark.parametrize("letters", ["abcdef", "abc", "bdf"])
def test_codes_decode_to_the_reference_words(m, letters):
    codes = al.column_word_codes(m, letters)
    assert codes.dtype == np.int64
    assert np.all(codes[1:] > codes[:-1])  # numeric order is lexicographic
    words = reference_column_words(m, letters)
    assert al.decode_words(codes, m) == words
    assert [al.encode_word(w) for w in words] == codes.tolist()


def test_word_codes_refuse_lengths_past_int64():
    assert len(al.column_word_codes(1)) == 2
    with pytest.raises(ValueError, match="m <= 21"):
        al.column_word_codes(22)
    with pytest.raises(ValueError):
        al.column_word_codes(0)


@pytest.mark.parametrize("m", range(1, 8))
def test_code_rotation_and_conversion_match_the_string_forms(m):
    codes = al.column_word_codes(m)
    words = al.decode_words(codes, m)
    assert al.decode_words(al.horizontal_convert_codes(codes, m), m) == [
        al.horizontal_convert(w) for w in words
    ]
    for p in range(m):
        rotated = tr.rotate_words(codes, 3 * p, 3 * m)
        assert al.decode_words(rotated, m) == [al.rotate(w, p) for w in words]


def test_column_word_enumeration_leaves_no_reference_cycle():
    # a cycle would keep each word list alive until the cyclic collector ran
    gc.collect()
    gc.disable()
    try:
        al.enumerate_column_words(6)
        al.decode_words(al.column_word_codes(6, "abc"), 6)
        al.decode_words(al.column_word_codes(6, "bdf"), 6)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_column_words_rejects_zero():
    with pytest.raises(ValueError):
        al.enumerate_column_words(0)


@given(column_words)
def test_column_words_are_column_valid(w):
    assert al.is_column_word(w)


def test_vertical_convert_gives_successor():
    # every column word points to its vertical conversion
    for m in range(1, 6):
        for w in al.enumerate_column_words(m):
            wp = al.vertical_convert(w)
            assert al.is_column_word(wp)
            assert al.outlet(w) == al.inlet(wp)


def test_arc_reverses_under_vertical_conversion():
    # v -> u implies u' -> v'
    for m in range(1, 6):
        words = al.enumerate_column_words(m)
        for v in words:
            for u in words:
                if al.outlet(v) == al.inlet(u):
                    assert al.outlet(al.vertical_convert(u)) == al.inlet(
                        al.vertical_convert(v)
                    )


def test_count_io_words_examples():
    assert al.count_io_words("00", "00") == 1
    assert al.count_io_words("00", "11") == 2
    assert al.count_io_words("00", "01") == 0


@pytest.mark.parametrize("m", range(1, 9))
def test_count_io_words_total(m):
    total = 0
    for u in range(1 << m):
        uw = format(u, f"0{m}b")
        for w in range(1 << m):
            c = al.count_io_words(uw, format(w, f"0{m}b"))
            assert c in (0, 1, 2)
            total += c
    assert total == 3**m + (-1) ** m


@pytest.mark.parametrize("m", range(1, 9))
def test_count_io_words_alternating_chain(m):
    # every position with exactly one horizontal edge: the vertical edges
    # force an alternating cycle, impossible at odd widths
    for u in range(1 << m):
        uw = format(u, f"0{m}b")
        ww = "".join("01"[ch == "0"] for ch in uw)
        assert al.count_io_words(uw, ww) == (2 if m % 2 == 0 else 0)
