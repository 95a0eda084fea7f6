"""Deterministic fuzz-input generation for parser-totality checks.

Inputs are corpus mutations (deletions, insertions, splices, keyword
swaps, case flips) plus unstructured noise: random printable text,
random bytes decoded permissively, and keyword soup. A fixed list of
lexer and parser edge cases (long digit runs, CRLF, non-ASCII, broken
strings, 1000-term operator chains) complements them, and so do
programs nested or chained either side of the parser's nesting limit.
Semantic mutants, which mostly still parse, exercise the validator.
"""

from __future__ import annotations

import functools
import random
import re
import string
from pathlib import Path

from anka.bench import fixture_dir
from anka.formatter import format_ast
from anka.lexer import KEYWORDS

from pipelinegen import rand_pipeline

CORPUS_DIR = Path(__file__).parent / "corpus"

_NOISE_CHARS = (
    string.ascii_letters + string.digits + string.punctuation + " \t\n\r" + "é∆\x00\x7f"
)
_KEYWORD_LIST = sorted(KEYWORDS)


@functools.cache
def corpus_sources() -> tuple[str, ...]:
    """The corpus texts, read once: every splice mutation draws a donor."""
    return tuple(p.read_text(encoding="utf-8") for p in sorted(CORPUS_DIR.glob("*.anka")))


def fixture_sources() -> list[str]:
    """The shipped fixture suite's candidates, then its broken variants."""
    root = fixture_dir()
    paths = sorted(root.glob("candidates/*/*.anka")) + sorted(root.glob("broken/*/*.anka"))
    return [p.read_text(encoding="utf-8") for p in paths]


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


@functools.lru_cache(maxsize=None)
def fuzz_inputs(count: int, seed: int = 0xF0220) -> tuple[str, ...]:
    """Generated once per (count, seed): the lexer and parser digests and
    the parser-totality criterion share one generation."""
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
    return tuple(inputs)


# Words a semantic mutation swaps within their group.
_SWAP_GROUPS = (
    ("INT", "DECIMAL", "STRING", "BOOL", "DATE", "DATETIME"),
    ("COUNT", "SUM", "AVG", "MIN", "MAX"),
    ("TRUE", "FALSE"),
    ("AND", "OR"),
)
_SWAP_WORDS = {word: group for group in _SWAP_GROUPS for word in group}
_LITERALS = ("7", "-1", "2.5", '"text"', "TRUE", 'DATE "2024-02-29"',
             'DATETIME "2024-02-29T12:00:00"')
# Comments, strings, words and numbers, each a span of the source.
_SPAN = re.compile(r'#[^\n]*|"(?:[^"\\\n]|\\.)*"|[A-Za-z_][A-Za-z0-9_]*|[0-9]+(?:\.[0-9]+)?')


def _semantic_mutate(rng: random.Random, text: str) -> str:
    """One mutation that keeps most programs parseable: swap an identifier,
    a type, aggregate or boolean keyword, or a literal, or duplicate a line."""
    spans = [m for m in _SPAN.finditer(text) if not m[0].startswith("#")]
    idents = [m for m in spans
              if (m[0][0].isalpha() or m[0][0] == "_") and m[0] not in KEYWORDS]
    keywords = [m for m in spans if m[0] in _SWAP_WORDS]
    literals = [m for m in spans
                if m[0][0] in '"0123456789' or m[0] in ("TRUE", "FALSE")]
    kind = rng.randrange(4)
    if kind == 0 and idents:
        names = sorted({m[0] for m in idents}) + ["fresh"]
        m = rng.choice(idents)
        return text[: m.start()] + rng.choice(names) + text[m.end():]
    if kind == 1 and keywords:
        m = rng.choice(keywords)
        return text[: m.start()] + rng.choice(_SWAP_WORDS[m[0]]) + text[m.end():]
    if kind == 2 and literals:
        m = rng.choice(literals)
        return text[: m.start()] + rng.choice(_LITERALS) + text[m.end():]
    lines = text.split("\n")
    i = rng.randrange(len(lines))
    return "\n".join(lines[: i + 1] + lines[i:])


@functools.cache
def semantic_mutants(count: int = 6000, seed: int = 0x5E3A) -> tuple[str, ...]:
    """Mutants of the corpus, the fixture samples and 300 generated
    pipelines, one or two mutations each, that mostly still parse and so
    reach the validator's rules."""
    rng = random.Random(seed)
    bases = list(corpus_sources()) + fixture_sources()
    bases += [format_ast(rand_pipeline(random.Random(n))[0]) for n in range(300)]
    mutants = []
    for _ in range(count):
        text = rng.choice(bases)
        for _ in range(rng.randint(1, 2)):
            text = _semantic_mutate(rng, text)
        mutants.append(text)
    return tuple(mutants)


_EDGE_PROGRAM = (
    "PIPELINE p:\n INPUT t: TABLE[a: INT, b: STRING]  # {comment}\n STEP s:\n"
    "  FILTER t WHERE a > {literal} INTO r\n OUTPUT r\n"
)


def lexer_edge_inputs() -> list[str]:
    """Fixed inputs at the lexer's and the parser's limits, most inside a
    whole program."""
    literals = []
    for n in (19, 20, 4300, 5000):
        literals += ["9" * n, "1" * n + ".5", "0." + "1" * n]
    literals += ["1.", ".5", '"naïve ∆"', '"a\\\nb"']
    inputs = [_EDGE_PROGRAM.format(comment="note", literal=lit) for lit in literals]
    program = _EDGE_PROGRAM.format(comment="çà ∆ é", literal="1")
    truncated = program[: program.index("1 INTO")] + '"\\'
    inputs += [program, program.replace("\n", "\r\n"), truncated, '"\\', "1" * 5000]
    # 1000-term operator chains, far past the nesting limit
    for chain in (" OR ".join(["a > 1"] * 1000), " + ".join(["a"] * 1000) + " > 1"):
        inputs.append(program.replace("a > 1", chain))
    return inputs


def nested_program(expr: str) -> str:
    """A one-statement program whose MAP computes ``expr``."""
    return (
        "PIPELINE p:\n INPUT t: TABLE[a: INT, s: STRING]\n STEP s1:\n"
        f"  MAP t WITH b => {expr} INTO r\n OUTPUT r"
    )


def nested_blocks(opening: str, closing: str, levels: int) -> str:
    """A program whose one statement sits ``levels`` control blocks deep."""
    body = "DISTINCT t INTO r"
    for _ in range(levels):
        body = f"{opening} {body} {closing}"
    return (
        "PIPELINE p:\n INPUT t: TABLE[a: INT, s: STRING]\n STEP s1:\n"
        f"  {body}\n OUTPUT t"
    )


def left_nested(levels: int, terms: int) -> str:
    """``((a == a OR ...) OR a == a ...)``: each level parses at a shallow
    nesting, yet sits below every operator of the levels around it."""
    expr = "a == a"
    for _ in range(levels):
        expr = f"({expr})" + " OR a == a" * terms
    return expr


_BLOCKS = (
    ("IF a > 0 THEN", "END_IF"),
    ("IF TRUE THEN DISTINCT t INTO d ELSE", "END_IF"),
    ("FOR_EACH row IN t DO", "END_FOR"),
    ("WHILE FALSE DO", "END_WHILE"),
    ("TRY", "ON_ERROR DISTINCT t INTO e END_TRY"),
)


def nesting_inputs() -> list[str]:
    """Each construct that nests or chains, at every depth from a few
    levels under the deepest one the parser admits to a few past it."""
    families = [
        (range(95, 104), lambda n: "(" * n + "a" + ")" * n),
        (range(62, 71), lambda n: "NOT (" * n + "TRUE" + ")" * n),
        (range(62, 71), lambda n: "-(" * n + "a" + ")" * n),
        (range(62, 71), lambda n: "UPPER(" * n + "s" + ")" * n),
        (range(62, 71), lambda n: "CONCAT(s, " * n + "s" + ")" * n),
        (range(35, 44), lambda n: "ABS((" * n + "a" + "))" * n),
        (range(194, 203), lambda n: "NOT " * n + "TRUE"),
        (range(194, 203), lambda n: "-" * n + "a"),
        (range(194, 203), lambda n: "- " * n + "a"),
    ]
    for op, term in ((" OR ", "a == a"), (" AND ", "a > 0"), (" + ", "a"),
                     (" - ", "a"), (" * ", "a"), (" / ", "a")):
        families.append((range(194, 203), lambda n, op=op, term=term: op.join([term] * n)))
    inputs = [nested_program(expr(n)) for depths, expr in families for n in depths]
    inputs += [nested_program(left_nested(levels, terms))
               for levels, terms in ((20, 9), (30, 5), (60, 2), (95, 1))]
    for opening, closing in _BLOCKS:
        inputs += [nested_blocks(opening, closing, n) for n in range(194, 203)]
    return inputs
