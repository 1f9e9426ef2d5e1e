"""Kondrak n-gram distances pinned bit for bit where n is a power of two.

For such n every substitution cost i/n and every DP sum is exact in
float64, so the integer DP must reproduce, to the last bit, the values
of the float DP it replaced. The hex strings below were written by that
float DP; the pairs include words of 66 to 73 characters and non-ASCII
letters.
"""

import pytest

from wordsim.candidates import CandidateTable, Query
from wordsim.gramfam import kondrak_ngram_distance, kondrak_ngram_distance_many

L66 = "dtwyuqhixijxcvojovmmydihklzilzuuqefrvvifaucdtkacigmmsotduvdssuulfd"
L70 = "xpqvgiotgpzjqiddciidafxndvqscnpvfrmojponntdipmhotpcsepwisoawmnalwslpil"
L73 = "jqgburpzidmdbgjaasqjqzlidbeygahiqifhgtvkjxylbrtxzyfquglpmhmrrykptbhunpykc"
M72 = "jqgburpziddbgjaasqjqzlidbeygahiqifhgtvkqxylbrtxzyfquglpmhmrkptbhunpykcab"
V68 = "ueioaiouññißaeuéßßiñoeiiiaoéaßñuñéeéaeeßeaieauaißiañññaueuouaoaéeeßß"
W68 = "ueioaiouññißaeuéßßiñßoeiiiaoéaßñuñéeéaeeßeaieauaißiññaueuouaoaéeeßßé"

N_VALUES = (1, 2, 4, 8)

# (x, y, [distance(x, y, n).hex() for n in N_VALUES])
PINNED = [
    ("night", "nacht",
     ["0x1.999999999999ap-2", "0x1.999999999999ap-2", "0x1.6666666666666p-2", "0x1.6666666666666p-3"]),
    ("vector", "doctor",
     ["0x1.5555555555555p-2", "0x1.5555555555555p-2", "0x1.5555555555555p-2", "0x1.d555555555555p-3"]),
    ("ghtlfci", "noytztnd",
     ["0x1.c000000000000p-1", "0x1.a000000000000p-1", "0x1.7000000000000p-1", "0x1.2000000000000p-1"]),
    ("ghtlfci", "cqaieffk",
     ["0x1.c000000000000p-1", "0x1.a000000000000p-1", "0x1.7000000000000p-1", "0x1.2000000000000p-1"]),
    ("a", "ab",
     ["0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.0000000000000p-1"]),
    ("abcabc", "cbacba",
     ["0x1.5555555555555p-1", "0x1.2aaaaaaaaaaabp-1", "0x1.0000000000000p-1", "0x1.2aaaaaaaaaaabp-2"]),
    (L66, L70,
     ["0x1.d41d41d41d41dp-1", "0x1.d075075075075p-1", "0x1.c924924924925p-1", "0x1.c1d41d41d41d4p-1"]),
    (L73, M72,
     ["0x1.50a8542a150a8p-4", "0x1.88c46231188c4p-4", "0x1.c0e070381c0e0p-4", "0x1.150a8542a150bp-3"]),
    (L70, "night",
     ["0x1.e2be2be2be2bep-1", "0x1.edb6db6db6db7p-1", "0x1.f15f15f15f15fp-1", "0x1.e924924924925p-1"]),
    (L73, L66,
     ["0x1.c0e070381c0e0p-1", "0x1.bd5eaf57abd5fp-1", "0x1.bb9dcee773b9ep-1", "0x1.bb9dcee773b9ep-1"]),
    ("straße", "strasse",
     ["0x1.2492492492492p-2", "0x1.2492492492492p-2", "0x1.0000000000000p-2", "0x1.9249249249249p-3"]),
    ("café", "cafe",
     ["0x1.0000000000000p-2", "0x1.0000000000000p-3", "0x1.0000000000000p-4", "0x1.0000000000000p-5"]),
    (V68, W68,
     ["0x1.e1e1e1e1e1e1ep-5", "0x1.2d2d2d2d2d2d3p-4", "0x1.5a5a5a5a5a5a6p-4", "0x1.bc3c3c3c3c3c4p-4"]),
    ("\U0001f600ñ中中añéññß\U0001f600a", "e\U0001f600中文文ñ文ßa",
     ["0x1.5555555555555p-1", "0x1.6aaaaaaaaaaabp-1", "0x1.5555555555555p-1", "0x1.3000000000000p-1"]),
    (V68, "ueio",
     ["0x1.e1e1e1e1e1e1ep-1", "0x1.e1e1e1e1e1e1ep-1", "0x1.e1e1e1e1e1e1ep-1", "0x1.e1e1e1e1e1e1ep-1"]),
    ("中文", "文中文",
     ["0x1.5555555555555p-2", "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.aaaaaaaaaaaabp-2"]),
]


@pytest.mark.parametrize("x, y, pinned", PINNED)
def test_scalar_is_bit_identical(x, y, pinned):
    for n, want in zip(N_VALUES, pinned):
        assert kondrak_ngram_distance(x, y, n).hex() == want, n
        assert kondrak_ngram_distance(y, x, n).hex() == want, n


@pytest.mark.parametrize("n", N_VALUES)
def test_kernel_is_bit_identical(n):
    column = N_VALUES.index(n)
    for x in {x for x, _, _ in PINNED}:
        rows = [(y, pinned[column]) for x2, y, pinned in PINNED if x2 == x]
        table = CandidateTable([y for y, _ in rows])
        got = table.unsort(kondrak_ngram_distance_many(Query(table, x), n))
        assert [d.hex() for d in got.tolist()] == [want for _, want in rows], x
