"""``long_pipeline``: one generated program of about 500 statements on 10 rows.

Mostly MAP, FILTER, DROP, RENAME, ADD_COLUMN and SELECT, chained so each
statement reads the previous one's output, while the schema widens to
about 200 columns. Per-statement cost dominates and per-row cost is nil.
The generator evaluates every statement in plain Python as it emits it,
so the expected output comes with the program.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass
from decimal import Decimal

from anka import interpreter, io_adapters, parser, validator
from anka.values import Field, Schema, ValueType, make_table

from perfbench import reference as ref
from perfbench.calibrate import Clock
from perfbench.measure import Round

BASE = [("k", "INT"), ("a", "INT"), ("b", "INT"), ("s", "STRING"),
        ("d", "DECIMAL"), ("t", "DATE"), ("f", "BOOL")]
WORDS = ("alpha", " Beta", "gamma ", "DELTA", "eps ilon", "zeta", "Eta", "theta")
INT_LIMIT = 10**12
WEIGHTS = (("MAP", 40), ("ADD_COLUMN", 14), ("RENAME", 14), ("DROP", 14),
           ("FILTER", 16), ("SELECT", 2))
EXPR_KINDS = ("INT", "INT", "DECIMAL", "STRING", "STRING", "BOOL")
PER_STEP = 10
# The sequence of statement kinds and column types comes from this fixed
# seed, so the program's shape, and with it its cost, is the same for
# every seed; the seed picks names, operands, templates and data.
SHAPE_SEED = 17


def _null(*values) -> bool:
    return any(v is None for v in values)


class _Gen:
    def __init__(self, rng: random.Random, rows: int) -> None:
        self.rng = rng
        self.schema = list(BASE)
        start = datetime.date(2020, 1, 1)
        self.rows = [
            {
                "k": i + 1,
                "a": None if i == 3 else rng.randint(-50, 50),
                "b": rng.randint(1, 20),
                "s": rng.choice(WORDS),
                "d": None if i == 5 else Decimal(rng.randint(-9999, 9999)).scaleb(-2),
                "t": start + datetime.timedelta(days=rng.randint(0, 2000)),
                "f": rng.random() < 0.5,
            }
            for i in range(rows)
        ]
        self.fresh = 0

    def new_name(self) -> str:
        self.fresh += 1
        return f"c{self.fresh}"

    def cols(self, tag):
        return [n for n, t in self.schema if t == tag]

    def pick(self, tag):
        return self.rng.choice(self.cols(tag))

    # Each template returns (expression text, type tag, per-row function).
    def expr(self, kind: str):
        r = self.rng
        if kind == "INT":
            x, y = self.pick("INT"), self.pick("INT")
            c = r.randint(2, 9)
            options = [
                (f"{x} + {y}", lambda w: None if _null(w[x], w[y]) else w[x] + w[y]),
                (f"{x} - {y} * {c}", lambda w: None if _null(w[x], w[y]) else w[x] - w[y] * c),
                (f"{x} / {c}", lambda w: None if _null(w[x]) else ref.int_div(w[x], c)),
                (f"-{x}", lambda w: None if _null(w[x]) else -w[x]),
            ]
            if self.cols("STRING"):
                s = self.pick("STRING")
                options.append((f"LENGTH({s})", lambda w: None if _null(w[s]) else len(w[s])))
            if self.cols("DATE"):
                d = self.pick("DATE")
                options.append((f"YEAR({d}) - 2000", lambda w: None if _null(w[d]) else w[d].year - 2000))
                options.append((f"MONTH({d})", lambda w: None if _null(w[d]) else w[d].month))
            text, fn = r.choice(options)
            if any(v is not None and abs(v) > INT_LIMIT for v in map(fn, self.rows)):
                text, fn = options[2]  # division keeps magnitudes bounded
            return text, "INT", fn
        if kind == "DECIMAL":
            dec = self.cols("DECIMAL")
            i = self.pick("INT")
            if not dec:
                return f"TO_DECIMAL({i})", "DECIMAL", lambda w: None if _null(w[i]) else Decimal(w[i])
            x = r.choice(dec)
            options = [
                (f"{x} + {i}", lambda w: None if _null(w[x], w[i]) else w[x] + w[i]),
                (f"{x} - 1.25", lambda w: None if _null(w[x]) else w[x] - Decimal("1.25")),
            ]
            if "d" in dec:  # scale-growing operators only on the base column
                options.append(("d * 3", lambda w: None if _null(w["d"]) else w["d"] * 3))
                options.append(("d / 4", lambda w: None if _null(w["d"]) else ref.divide(w["d"], 4)))
            text, fn = r.choice(options)
            return text, "DECIMAL", fn
        if kind == "STRING":
            if not self.cols("STRING"):
                i = self.pick("INT")
                return f"TO_STRING({i})", "STRING", lambda w: None if _null(w[i]) else str(w[i])
            x, y = self.pick("STRING"), self.pick("STRING")
            options = [
                (f"UPPER({x})", lambda w: None if _null(w[x]) else w[x].upper()),
                (f"LOWER({x})", lambda w: None if _null(w[x]) else w[x].lower()),
                (f"TRIM({x})", lambda w: None if _null(w[x]) else w[x].strip()),
                (f"SUBSTRING(CONCAT({x}, {y}), 1, 9)",
                 lambda w: None if _null(w[x], w[y]) else (w[x] + w[y])[1:10]),
                (f'REPLACE({x}, "a", "o")', lambda w: None if _null(w[x]) else w[x].replace("a", "o")),
            ]
            text, fn = r.choice(options)
            return text, "STRING", fn
        x, y = self.pick("INT"), self.pick("INT")
        options = [(f"{x} > {y}", lambda w: None if _null(w[x], w[y]) else w[x] > w[y])]
        if self.cols("BOOL"):
            g = self.pick("BOOL")
            options.append((f"{x} >= 0 AND {g}", lambda w: _and(None if _null(w[x]) else w[x] >= 0, w[g])))
            options.append((f"NOT {g}", lambda w: None if _null(w[g]) else not w[g]))
        text, fn = r.choice(options)
        return text, "BOOL", fn


def _and(left, right):
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


LITERALS = (
    ("7", "INT", 7), ("1.25", "DECIMAL", Decimal("1.25")), ('"x"', "STRING", "x"),
    ("TRUE", "BOOL", True), ('DATE "2024-01-02"', "DATE", datetime.date(2024, 1, 2)),
)


def generate(seed: int, statements: int = 500, rows: int = 10):
    """Return (source, input schema, input rows, output schema, output rows)."""
    rng, shape = random.Random(seed), random.Random(SHAPE_SEED)
    g = _Gen(rng, rows)
    input_rows = [dict(r) for r in g.rows]
    kinds = [k for k, _ in WEIGHTS]
    weights = [w for _, w in WEIGHTS]
    lines = [f"PIPELINE wide_{seed}:",
             "  INPUT t0: TABLE[" + ", ".join(f"{n}: {t}" for n, t in BASE) + "]"]
    for n in range(1, statements + 1):
        if (n - 1) % PER_STEP == 0:
            lines.append(f"  STEP g{(n - 1) // PER_STEP}:")
        src, dst = f"t{n - 1}", f"t{n}"
        kind = shape.choices(kinds, weights)[0]
        movable = [name for name, _ in g.schema if name != "k"]
        if kind in ("RENAME", "DROP", "SELECT") and len(movable) < 4:
            kind = "ADD_COLUMN"
        if kind == "MAP":
            text, tag, fn = g.expr(shape.choice(EXPR_KINDS))
            col = g.new_name()
            for w in g.rows:
                w[col] = fn(w)
            g.schema.append((col, tag))
            lines.append(f"    MAP {src} WITH {col} => {text} INTO {dst}")
        elif kind == "ADD_COLUMN":
            text, tag, value = shape.choice(LITERALS)
            col = g.new_name()
            for w in g.rows:
                w[col] = value
            g.schema.append((col, tag))
            lines.append(f"    ADD_COLUMN {src} WITH {col} = {text} INTO {dst}")
        elif kind == "RENAME":
            old, new = rng.choice(movable), g.new_name()
            g.schema = [(new if c == old else c, t) for c, t in g.schema]
            for w in g.rows:
                w[new] = w.pop(old)
            lines.append(f"    RENAME {src} COLUMN {old} TO {new} INTO {dst}")
        elif kind == "DROP":
            gone = rng.choice(movable)
            g.schema = [(c, t) for c, t in g.schema if c != gone]
            for w in g.rows:
                del w[gone]
            lines.append(f"    DROP {src} COLUMN {gone} INTO {dst}")
        elif kind == "SELECT":
            dropped = set(rng.sample(movable, 2))
            keep = [c for c, _ in g.schema if c not in dropped]
            rng.shuffle(keep)
            types = dict(g.schema)
            g.schema = [(c, types[c]) for c in keep]
            lines.append(f"    SELECT {src} COLUMNS {', '.join(keep)} INTO {dst}")
        else:
            col = rng.choice([c for c, t in g.schema if t == "INT"
                              and all(w[c] is not None for w in g.rows)])
            # Every row passes, so the row count, like the shape, is fixed.
            low = min(w[col] for w in g.rows) - rng.randint(0, 3)
            pred = rng.choice((f"{col} >= {low}", f"{col} > {low - 1}", f"{low} <= {col}"))
            lines.append(f"    FILTER {src} WHERE {pred} INTO {dst}")
    lines.append(f"  OUTPUT t{statements}")
    return "\n".join(lines) + "\n", list(BASE), input_rows, g.schema, g.rows


@dataclass
class State:
    source: str
    input_table: object
    out_schema: list
    expected: list
    statements: int

    def sizes(self) -> dict:
        return {
            "rows": len(self.input_table.rows),
            "statements": self.statements,
            "source_bytes": len(self.source.encode()),
            "output_columns": len(self.out_schema),
        }


def setup(seed: int, statements: int = 500, rows: int = 10) -> State:
    source, in_schema, in_rows, out_schema, expected = generate(seed, statements, rows)
    schema = Schema(Field(n, ValueType(t)) for n, t in in_schema)
    table = make_table(schema, [tuple(r[n] for n, _ in in_schema) for r in in_rows])
    return State(source, table, out_schema, expected, statements)


def run_round(state: State, clock: Clock | None = None) -> Round:
    """Compile, run and encode the program once; ``clock`` times the
    three phases (plain wall time without one)."""
    clock = clock or Clock(probing=False)
    errors = []
    compile_s = run_s = 0.0
    clock.lap()
    try:
        program = parser.parse(state.source)
        checked = validator.validate(program)
        compile_s = clock.lap()
        if not checked.ok:
            raise ValueError(f"does not validate: {checked.errors[0]}")
        table = interpreter.run_pipeline(program, {"t0": state.input_table})
        run_s = clock.lap()
        encoded = io_adapters.table_to_json(table)
    except Exception as exc:  # a failed operation is counted, the run goes on
        wall = compile_s + run_s + clock.lap()
        rows = len(state.input_table.rows)
        return Round(wall, 1, rows, 1, 1, [], [f"{type(exc).__name__}: {exc}"])
    wall = compile_s + run_s + clock.lap()
    failed = 0
    actual = [(f.name, f.type.value) for f in table.schema.fields]
    if actual != state.out_schema or not ref.rows_equal(state.out_schema, state.expected, table.rows):
        failed, errors = 1, ["output table differs from the reference"]
    else:
        decoded = ref.read_json(state.out_schema, encoded)
        if decoded is None or not ref.rows_equal(
            state.out_schema, state.expected,
            [tuple(r[n] for n, _ in state.out_schema) for r in decoded],
        ):
            failed, errors = 1, ["encoded output differs from the reference"]
    return Round(wall, 1, len(state.input_table.rows), 1, failed, [encoded], errors,
                 latencies=[wall], compiles=[compile_s], runs=[run_s])
