from __future__ import annotations

import random
import string

from helpers import oracle_levenshtein, reach_passes
from simulstream.textnorm import (
    is_sentence_terminal,
    levenshtein,
    normalize_word,
    words_match,
)


def test_normalize_strips_punctuation_and_case() -> None:
    assert normalize_word("Hello,") == "hello"
    assert normalize_word("—") == ""  # em dash is all punctuation
    assert normalize_word("O'Neill") == "oneill"


def test_normalize_is_idempotent() -> None:
    rng = random.Random(11)
    alphabet = string.ascii_letters + ".,'’“-"
    for _ in range(300):
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
        once = normalize_word(word)
        if once:
            assert normalize_word(once) == once


def test_levenshtein_basics() -> None:
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("abc", "") == 3
    assert levenshtein("kitten", "sitting") == oracle_levenshtein("kitten", "sitting")
    assert levenshtein("kitten", "sitting") == 3


def _edit(rng: random.Random, word: str, edits: int, alphabet: str) -> str:
    chars = list(word)
    for _ in range(edits):
        i = rng.randint(0, len(chars))
        op = rng.choice(("insert", "delete", "substitute")) if i < len(chars) else "insert"
        if op == "insert":
            chars.insert(i, rng.choice(alphabet))
        elif op == "delete":
            del chars[i]
        else:
            chars[i] = rng.choice(alphabet)
    return "".join(chars)


def test_levenshtein_matches_recursive_oracle() -> None:
    rng = random.Random(7)
    # Non-BMP characters are one code point each, as ASCII ones are.
    for alphabet in ("abcd", "aé😀𝔸"):
        for _ in range(400):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            assert levenshtein(a, b) == oracle_levenshtein(a, b)
    # Long, nearly equal strings: the wave pass skips their equal runs.
    for alphabet in ("abcd", "aé😀𝔸"):
        for _ in range(15):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(64, 100)))
            b = _edit(rng, a, rng.randint(0, 3), alphabet)
            assert levenshtein(a, b) == oracle_levenshtein(a, b)


def test_levenshtein_is_a_metric_on_short_strings() -> None:
    rng = random.Random(13)
    words = [
        "".join(rng.choice("abc") for _ in range(rng.randint(0, 5))) for _ in range(40)
    ]
    for _ in range(300):
        a, b, c = rng.choice(words), rng.choice(words), rng.choice(words)
        assert levenshtein(a, b) == levenshtein(b, a)
        assert (levenshtein(a, b) == 0) == (a == b)
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


def test_words_match_examples() -> None:
    assert words_match("Hello,", "hello", 2)
    assert words_match("colour", "color", 2)  # distance 1
    assert not words_match("cat", "dogma", 2)  # distance 4
    assert words_match("Hello,", "hello", 0)  # normalization is fixed
    assert not words_match("colour", "color", 0)


def test_words_match_threshold_zero_is_normalized_equality() -> None:
    rng = random.Random(3)
    for _ in range(300):
        a = "".join(rng.choice("abC.") for _ in range(rng.randint(1, 5)))
        b = "".join(rng.choice("abC.") for _ in range(rng.randint(1, 5)))
        assert words_match(a, b, 0) == (
            normalize_word(a) == normalize_word(b)
        )


def test_words_match_is_symmetric_and_reflexive() -> None:
    rng = random.Random(5)
    for _ in range(200):
        a = "".join(rng.choice("abcd,.") for _ in range(rng.randint(1, 6)))
        b = "".join(rng.choice("abcd,.") for _ in range(rng.randint(1, 6)))
        assert words_match(a, a, 0)
        assert words_match(a, b, 2) == words_match(b, a, 2)


def test_words_match_agrees_with_the_oracle_distance_of_normalized_words() -> None:
    rng = random.Random(19)
    alphabet = "abcdeAB"
    pairs = []
    for _ in range(200):
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 7)))
        pairs.append((word, word))  # equal raw strings
        # Differs only in case and punctuation: normalizes to the same word.
        variant = "".join(ch.swapcase() if rng.random() < 0.5 else ch for ch in word)
        pairs.append((word, rng.choice(("", "¿", "'")) + variant + rng.choice(("", ".", ",", "!”"))))
        unrelated = "".join(rng.choice(alphabet + ".,") for _ in range(rng.randint(1, 7)))
        pairs.append((word, unrelated))
    pairs += [(",", ","), (",", "."), ("—", "a")]  # all punctuation
    for a, b in pairs:
        distance = oracle_levenshtein(normalize_word(a), normalize_word(b))
        for threshold in (-1, 0, 1, 2, 3):
            assert words_match(a, b, threshold) == (distance <= threshold), (a, b, threshold)
    assert not words_match("same", "same", -1)
    assert words_match("same", "same", 0)


def test_words_match_makes_no_resegmentation_pass(monkeypatch) -> None:
    passes = reach_passes(monkeypatch)
    assert words_match("colour", "color", 2)
    assert not words_match("cat", "dogma", 2)
    assert passes == []


def test_sentence_terminal_marks_sentence_ends() -> None:
    words = ["We", "agree.", "Dr.", "Smith", "spoke.", "One.", "no", "boundary", "here"]
    ends = [w for w in words if is_sentence_terminal(w)]
    assert ends == ["agree.", "spoke.", "One."]
    assert not is_sentence_terminal("Mr.")  # abbreviations are case-blind


def test_sentence_terminal_handles_closers_and_abbreviations() -> None:
    assert is_sentence_terminal("done.”")
    assert is_sentence_terminal("what?!")  # ends with a terminal mark
    assert is_sentence_terminal("sure…")
    assert not is_sentence_terminal("e.g.")
    assert not is_sentence_terminal("J.")  # single letter: an initial
    assert not is_sentence_terminal("plain")
    assert not is_sentence_terminal("half),")
