"""Deterministic fuzz-input generation for parser-totality checks.

Inputs are corpus mutations (deletions, insertions, splices, keyword
swaps, case flips) plus unstructured noise: random printable text,
random bytes decoded permissively, and keyword soup. A fixed list of
lexer edge cases (long digit runs, CRLF, non-ASCII, broken strings)
complements them.
"""

from __future__ import annotations

import random
import string
from pathlib import Path

from anka.lexer import KEYWORDS

CORPUS_DIR = Path(__file__).parent / "corpus"

_NOISE_CHARS = (
    string.ascii_letters + string.digits + string.punctuation + " \t\n\r" + "é∆\x00\x7f"
)
_KEYWORD_LIST = sorted(KEYWORDS)


def corpus_sources() -> list[str]:
    return [p.read_text(encoding="utf-8") for p in sorted(CORPUS_DIR.glob("*.anka"))]


def _mutate(rng: random.Random, text: str) -> str:
    if not text:
        return text
    kind = rng.randrange(8)
    i = rng.randrange(len(text))
    j = min(len(text), i + rng.randint(1, 12))
    if kind == 0:  # delete a span
        return text[:i] + text[j:]
    if kind == 1:  # insert noise
        noise = "".join(rng.choice(_NOISE_CHARS) for _ in range(rng.randint(1, 8)))
        return text[:i] + noise + text[i:]
    if kind == 2:  # duplicate a span
        return text[:j] + text[i:j] + text[j:]
    if kind == 3:  # swap two characters
        k = rng.randrange(len(text))
        chars = list(text)
        chars[i], chars[k] = chars[k], chars[i]
        return "".join(chars)
    if kind == 4:  # truncate
        return text[:i]
    if kind == 5:  # replace a keyword occurrence with another keyword
        word = rng.choice(_KEYWORD_LIST)
        other = rng.choice(_KEYWORD_LIST)
        return text.replace(word, other, 1)
    if kind == 6:  # flip case of a span
        return text[:i] + text[i:j].swapcase() + text[j:]
    # splice with another corpus file
    donor = rng.choice(corpus_sources())
    cut = rng.randrange(len(donor)) if donor else 0
    return text[:i] + donor[cut:]


def fuzz_inputs(count: int, seed: int = 0xF0220) -> list[str]:
    rng = random.Random(seed)
    sources = corpus_sources()
    inputs: list[str] = []
    for n in range(count):
        bucket = n % 10
        if bucket < 6:  # mutated corpus
            text = rng.choice(sources)
            for _ in range(rng.randint(1, 5)):
                text = _mutate(rng, text)
            inputs.append(text)
        elif bucket < 8:  # keyword soup
            soup = " ".join(
                rng.choice(_KEYWORD_LIST + ["x", "1", "0.5", '"s"', "(", ")", ","])
                for _ in range(rng.randint(0, 60))
            )
            inputs.append(soup)
        elif bucket == 8:  # printable noise
            inputs.append(
                "".join(rng.choice(_NOISE_CHARS) for _ in range(rng.randint(0, 200)))
            )
        else:  # raw bytes, decoded permissively
            raw = bytes(rng.randrange(256) for _ in range(rng.randint(0, 120)))
            inputs.append(raw.decode("latin-1"))
    return inputs


_EDGE_PROGRAM = (
    "PIPELINE p:\n INPUT t: TABLE[a: INT, b: STRING]  # {comment}\n STEP s:\n"
    "  FILTER t WHERE a > {literal} INTO r\n OUTPUT r\n"
)


def lexer_edge_inputs() -> list[str]:
    """Fixed inputs at the lexer's limits, most inside a whole program."""
    literals = []
    for n in (19, 20, 4300, 5000):
        literals += ["9" * n, "1" * n + ".5", "0." + "1" * n]
    literals += ["1.", ".5", '"naïve ∆"', '"a\\\nb"']
    inputs = [_EDGE_PROGRAM.format(comment="note", literal=lit) for lit in literals]
    program = _EDGE_PROGRAM.format(comment="çà ∆ é", literal="1")
    truncated = program[: program.index("1 INTO")] + '"\\'
    inputs += [program, program.replace("\n", "\r\n"), truncated, '"\\', "1" * 5000]
    return inputs
