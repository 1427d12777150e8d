"""Letter alphabet and circular-word algebra for column codes of 2-factors.

Every vertex of a 2-factor has degree exactly two, so its local shape is a
2-subset of the four edge directions {left, right, up, down}.  The six
possibilities are named ``a`` .. ``f``:

    a = {right, up}     b = {up, down}      c = {right, down}
    d = {left, up}      e = {left, right}   f = {left, down}

A column of the grid is encoded as a *circular* word over this alphabet
(index arithmetic mod m, top to bottom).  Two neighbouring letters in a
column are consistent when the upper letter's down-edge matches the lower
letter's up-edge; two horizontally adjacent letters are consistent when the
left letter's right-edge matches the right letter's left-edge.

The binary "outlet" word of a column records which rows send an edge to the
right; the "inlet" word records which rows receive an edge from the left.
These words drive the reduced transfer digraph in :mod:`gridcycles.transfer`.

Column words are enumerated as int64 *codes*: letter j of a word of
length m is its index in :data:`LETTER_IDS`, stored in bits
3(m-1-j) .. 3(m-1-j)+2, so numeric order is lexicographic order.
:func:`column_word_codes` builds them and :func:`decode_words` is the one
place that turns codes into ``str`` words (letters over ``abcdef``); the
word algebra below works on ``str`` words, binary words over ``01``.

All functions here are pure and safe to share across threads.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class AlphaLetter(NamedTuple):
    """One local vertex configuration: which of the four directions carry an edge."""

    id: str
    left: bool
    right: bool
    up: bool
    down: bool


LETTER_IDS = "abcdef"

LETTERS: dict[str, AlphaLetter] = {
    "a": AlphaLetter("a", left=False, right=True, up=True, down=False),
    "b": AlphaLetter("b", left=False, right=False, up=True, down=True),
    "c": AlphaLetter("c", left=False, right=True, up=False, down=True),
    "d": AlphaLetter("d", left=True, right=False, up=True, down=False),
    "e": AlphaLetter("e", left=True, right=True, up=False, down=False),
    "f": AlphaLetter("f", left=True, right=False, up=False, down=True),
}

# Letter-level involutions: reflect across a horizontal line (swap up/down)
# or a vertical line (swap left/right).
_H_MAP = str.maketrans("abcdef", "cbafed")
_V_MAP = str.maketrans("abcdef", "dbfaec")

_UP = {k: v.up for k, v in LETTERS.items()}
_DOWN = {k: v.down for k, v in LETTERS.items()}
# letter -> "1" if it has a right (resp. left) edge, else "0"
_OUTLET_MAP = str.maketrans({k: "01"[v.right] for k, v in LETTERS.items()})
_INLET_MAP = str.maketrans({k: "01"[v.left] for k, v in LETTERS.items()})


def ud_arc(x: str, y: str) -> bool:
    """Can letter ``y`` sit directly below letter ``x`` in a column?"""
    return _DOWN[x] == _UP[y]


def rotate(word: str, k: int = 1) -> str:
    """Cyclic left shift by ``k`` positions (works for letter and binary words)."""
    m = len(word)
    if m == 0:
        raise ValueError("empty word")
    k %= m
    return word[k:] + word[:k]


def horizontal_convert(word: str) -> str:
    """Reflect a letter word across a horizontal line: reverse it and swap
    each letter's up/down edges.  An involution."""
    return word.translate(_H_MAP)[::-1]


def vertical_convert(word: str) -> str:
    """Reflect a letter word across a vertical line: swap each letter's
    left/right edges in place.  An involution."""
    return word.translate(_V_MAP)


def outlet(word: str) -> str:
    """Binary word marking the rows whose letter has a right edge."""
    return word.translate(_OUTLET_MAP)


def inlet(word: str) -> str:
    """Binary word marking the rows whose letter has a left edge."""
    return word.translate(_INLET_MAP)


def is_column_word(word: str) -> bool:
    """Does the word satisfy the cyclic up/down consistency of a column?"""
    m = len(word)
    return m > 0 and all(ud_arc(word[j], word[(j + 1) % m]) for j in range(m))


def encode_word(word: str) -> int:
    """The code of a letter word: letter j in bits 3(m-1-j) .. 3(m-1-j)+2."""
    code = 0
    for x in word:
        code = code << 3 | LETTER_IDS.index(x)
    return code


def column_word_codes(m: int, letters: str = LETTER_IDS) -> np.ndarray:
    """The codes of all cyclically up/down-consistent words of length m
    over ``letters``, sorted (so in lexicographic order of the words), as
    int64.  Level by level: each open word is repeated once per letter of
    the ``ud_arc`` follow table of its last letter, then the words whose
    last letter leads back to the first are kept."""
    if m < 1:
        raise ValueError(f"word length must be >= 1, got {m}")
    if 3 * m > 63:
        raise ValueError(f"int64 word codes hold lengths m <= 21, got {m}")
    ids = sorted(LETTER_IDS.index(x) for x in set(letters))
    follow = [[y for y in ids if ud_arc(LETTER_IDS[x], LETTER_IDS[y])] for x in range(6)]
    # follow[x] is table[start[x] : start[x] + count[x]]
    count = np.array([len(f) for f in follow])
    start = np.cumsum(count) - count
    table = np.array(sum(follow, []), dtype=np.int64)
    codes = np.array(ids, dtype=np.int64)
    last = codes
    for _ in range(m - 1):
        # word i becomes one word per letter table[start[x] + k], k < count[x],
        # x its last letter
        reps = count[last]
        ends = np.cumsum(reps)
        last = table[np.repeat(start[last] - ends + reps, reps) + np.arange(ends[-1:].sum())]
        codes = np.repeat(codes, reps) << 3 | last
    closes = np.array([[ud_arc(LETTER_IDS[x], LETTER_IDS[y]) for y in range(6)] for x in range(6)])
    return codes[closes[last, codes >> 3 * (m - 1)]]


_LETTER_BYTES = np.frombuffer(LETTER_IDS.encode(), dtype=np.uint8)


def decode_words(codes: np.ndarray, m: int) -> list[str]:
    """The letter words of length m with the given codes, in order."""
    shifts = 3 * np.arange(m - 1, -1, -1, dtype=np.int64)
    letters = _LETTER_BYTES[(np.asarray(codes, dtype=np.int64)[:, None] >> shifts) & 7]
    return letters.view(f"S{m}").ravel().astype(f"U{m}").tolist()


def enumerate_column_words(m: int) -> list[str]:
    """All valid column words of length m, lexicographic.  |result| = 3^m + (-1)^m."""
    return decode_words(column_word_codes(m), m)


_H_CODES = np.array([LETTER_IDS.index(x.translate(_H_MAP)) for x in LETTER_IDS], dtype=np.int64)


def horizontal_convert_codes(codes: np.ndarray, m: int) -> np.ndarray:
    """:func:`horizontal_convert` on the codes of words of length m: each
    letter through the code table of the horizontal reflection, the
    letters in reverse order."""
    out = np.zeros_like(codes)
    for j in range(m):
        out |= _H_CODES[(codes >> 3 * j) & 7] << 3 * (m - 1 - j)
    return out


# For a position with inlet bit u and outlet bit w, the vertical (up, down)
# bits of the letter are constrained to a 2x2 0/1 transition matrix on the
# chain variable "up bit of this row"; the number of valid column words with
# given inlet/outlet words is the trace of the product of these matrices.
#   (u, w) = (0, 0) -> letter b, up = down = 1
#   (u, w) = (1, 1) -> letter e, up = down = 0
#   otherwise       -> a/c (w=1) or d/f (u=1): up + down = 1, both orders
_POS_MATRIX = {
    (0, 0): ((0, 0), (0, 1)),
    (1, 1): ((1, 0), (0, 0)),
    (0, 1): ((0, 1), (1, 0)),
    (1, 0): ((0, 1), (1, 0)),
}


def count_io_words(u: str, w: str) -> int:
    """Number of column words with inlet ``u`` and outlet ``w``; always 0, 1 or 2.

    The independent per-pair reference for :func:`transfer.reduced_arcs`."""
    if len(u) != len(w):
        raise ValueError("inlet and outlet words must have equal length")
    p00, p01, p10, p11 = 1, 0, 0, 1
    for ub, wb in zip(u, w):
        (m00, m01), (m10, m11) = _POS_MATRIX[(int(ub), int(wb))]
        p00, p01, p10, p11 = (
            p00 * m00 + p01 * m10,
            p00 * m01 + p01 * m11,
            p10 * m00 + p11 * m10,
            p10 * m01 + p11 * m11,
        )
    return p00 + p11
