"""``run_rows``: the ``anka run`` path on seeded row inputs.

Each round decodes a CSV fact table and a JSON dimension table, then
parses, validates and runs four fixed pipelines that together use all 19
data operations, and encodes every output. READ, WRITE, FETCH and POST go
through an unsandboxed adapter whose file and HTTP handles are in-memory
fakes, so no disk or network is touched. Control flow runs only on a
12-row table. Every output is checked against ``reference``.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass
from decimal import Decimal

from anka import interpreter, io_adapters, parser, validator
from anka.errors import AnkaError
from anka.values import Field, Schema, ValueType

from perfbench import reference as ref
from perfbench.calibrate import Clock
from perfbench.measure import Round

FACT = [
    ("id", "INT"), ("customer_id", "INT"), ("region", "STRING"),
    ("product", "STRING"), ("qty", "INT"), ("price", "DECIMAL"),
    ("discount", "DECIMAL"), ("day", "DATE"),
]
DIM = [
    ("id", "INT"), ("name", "STRING"), ("tier", "STRING"), ("since", "DATE"),
    ("active", "BOOL"), ("credit", "DECIMAL"),
]
RETURNS = [("rid", "INT"), ("sale_id", "INT"), ("reason", "STRING"), ("amount", "DECIMAL")]
TARGETS = [("region", "STRING"), ("target", "DECIMAL")]

REGIONS = ("north", "south", "east", "west", "central")
PRODUCTS = (
    "widget", " gadget", "sprocket ", "gizmo", "doohickey", "bolt", "nut",
    "  flange", "valve", "pump", "bearing", "gear", "spring", "washer",
    "rivet", "hinge", "bracket", "coupling", "gasket", "pulley",
)
REASONS = ("damaged", "late", "wrong size", "", "changed mind", "duplicate")
TIERS = ("gold", "silver", "bronze", None)
TARGETS_URL = "http://bench.test/targets"
ROLLUP_URL = "http://bench.test/rollup"
HIGH_URL = "http://bench.test/high"


def table_type(schema) -> str:
    return "TABLE[" + ", ".join(f"{n}: {t}" for n, t in schema) + "]"


def anka_schema(schema) -> Schema:
    return Schema(Field(n, ValueType(t)) for n, t in schema)


@dataclass
class Pipeline:
    name: str
    source: str
    inputs: tuple[str, ...]
    out_schema: list
    out_format: str
    expected: list


@dataclass
class State:
    sales_csv: bytes
    customers_json: bytes
    files: dict
    routes: dict
    pipelines: list
    side_effects: dict
    input_rows: int

    def sizes(self) -> dict:
        return {
            "rows": self.input_rows,
            "pipelines": len(self.pipelines),
            "source_bytes": sum(len(p.source.encode()) for p in self.pipelines),
            "input_bytes": len(self.sales_csv) + len(self.customers_json)
            + sum(len(v) for v in self.files.values())
            + sum(len(v) for v in self.routes.values()),
        }


def _money(rng, lo, hi) -> Decimal:
    return Decimal(rng.randint(lo, hi)).scaleb(-2)


def _generate(rng, fact_rows, dim_rows, return_rows, target_rows):
    start = datetime.date(2023, 1, 1)
    sales = []
    for i in range(1, fact_rows + 1):
        sales.append({
            "id": i,
            "customer_id": None if rng.random() < 0.01 else rng.randint(1, dim_rows * 11 // 10),
            "region": rng.choice(REGIONS),
            "product": rng.choice(PRODUCTS),
            "qty": rng.randint(0, 9),
            "price": _money(rng, 100, 99999),
            "discount": None if rng.random() < 0.3 else Decimal(rng.choice(("0.05", "0.10", "0.15", "0.25"))),
            "day": start + datetime.timedelta(days=rng.randint(0, 729)),
        })
    ids = list(range(1, dim_rows + 1))
    rng.shuffle(ids)
    customers = []
    for cid in ids:
        customers.append({
            "id": cid,
            "name": f"Customer {cid:04d}",
            "tier": rng.choice(TIERS),
            "since": None if rng.random() < 0.05 else start - datetime.timedelta(days=rng.randint(0, 3000)),
            "active": rng.random() < 0.8,
            "credit": _money(rng, 0, 5000000),
        })
    early = []
    for rid in range(1, return_rows + 1):
        early.append({
            "rid": rid,
            "sale_id": rng.randint(1, fact_rows),
            "reason": rng.choice(REASONS),
            "amount": None if rng.random() < 0.05 else _money(rng, 100, 50000),
        })
    late = [dict(rng.choice(early)) for _ in range(return_rows // 8)]
    for rid in range(return_rows + 1, return_rows + 1 + return_rows // 8):
        late.append({
            "rid": rid,
            "sale_id": rng.randint(1, fact_rows),
            "reason": rng.choice(REASONS),
            "amount": _money(rng, 100, 50000),
        })
    rng.shuffle(late)
    # One target below the FILTER cut, one on each side of the IF branch.
    fixed = [_money(rng, 2000, 9999), _money(rng, 10001, 499999), _money(rng, 500001, 999999)]
    targets = [
        {"region": REGIONS[i % len(REGIONS)],
         "target": fixed[i] if i < len(fixed) else _money(rng, 2000, 999999)}
        for i in range(target_rows)
    ]
    return sales, customers, early, late, targets


def _sources(fact_rows, return_rows):
    sales_type, dim_type = table_type(FACT), table_type(DIM)
    limit = fact_rows * 2 // 5
    window = (fact_rows // 10, fact_rows // 4)
    skip = return_rows // 12
    enrich = f"""\
PIPELINE enrich:
  INPUT sales: {sales_type}
  INPUT customers: {dim_type}
  STEP keep:
    FILTER sales WHERE qty > 2 AND region != "central" INTO kept
  STEP price:
    MAP kept WITH total => price * qty INTO priced
  STEP label:
    MAP priced WITH code => CONCAT(UPPER(SUBSTRING(TRIM(product), 0, 3)), TO_STRING(YEAR(day))) INTO coded
  STEP attach:
    JOIN coded WITH customers ON customer_id == id INTO joined
  STEP narrow:
    SELECT joined COLUMNS id, region, code, total, name, tier INTO narrow
  STEP rank:
    SORT narrow BY total DESC INTO ranked
  STEP top:
    LIMIT ranked TO {limit} INTO top_rows
  OUTPUT top_rows
"""
    rollup = f"""\
PIPELINE rollup:
  INPUT sales: {sales_type}
  INPUT customers: {dim_type}
  STEP window:
    SLICE sales FROM {window[0]} TO {window[1]} INTO recent
  STEP attach:
    LEFT_JOIN recent WITH customers ON customer_id == id INTO attached
  STEP net:
    MAP attached WITH net => price * qty - price * qty * discount INTO with_net
  STEP roll:
    AGGREGATE with_net GROUP_BY region, tier
      COMPUTE SUM(net) AS net_total, AVG(price) AS avg_price, MIN(day) AS first_day,
              MAX(qty) AS max_qty, COUNT() AS n
      INTO summary
  STEP rank:
    SORT summary BY net_total DESC INTO ranked
  STEP send:
    POST ranked TO "{ROLLUP_URL}"
  OUTPUT ranked
"""
    returns = f"""\
PIPELINE returns_mix:
  STEP load:
    READ "returns.csv" AS CSV {table_type(RETURNS)} INTO early
    READ "returns_late.json" AS JSON {table_type(RETURNS)} INTO late
  STEP merge:
    UNION early WITH late INTO merged
    DISTINCT merged INTO unique_returns
  STEP shape:
    DROP unique_returns COLUMN reason INTO slim
    RENAME slim COLUMN amount TO refund INTO renamed
    ADD_COLUMN renamed WITH source = "returns" INTO tagged
  STEP page:
    SKIP tagged FIRST {skip} INTO paged
  STEP save:
    WRITE paged TO "returns_out.json" AS JSON
  OUTPUT paged
"""
    control = f"""\
PIPELINE control:
  STEP pull:
    FETCH "{TARGETS_URL}" {table_type(TARGETS)} INTO targets
  STEP guard:
    TRY
      MAP targets WITH share => target / 0 INTO shares
    ON_ERROR
      MAP targets WITH share => target / 4 INTO shares
    END_TRY
  STEP choose:
    IF 2 > 1 THEN
      FILTER shares WHERE target > 100.00 INTO picked
    ELSE
      FILTER shares WHERE target <= 100.00 INTO picked
    END_IF
  STEP notify:
    FOR_EACH t IN picked DO
      IF target > 5000.00 THEN
        POST picked TO "{HIGH_URL}"
      ELSE
        WRITE picked TO "low.json" AS JSON
      END_IF
    END_FOR
  OUTPUT picked
"""
    return enrich, rollup, returns, control, limit, window, skip


def setup(seed: int, fact_rows=20000, dim_rows=300, return_rows=1200, target_rows=12) -> State:
    rng = random.Random(seed)
    sales, customers, early, late, targets = _generate(
        rng, fact_rows, dim_rows, return_rows, target_rows
    )
    enrich, rollup, returns, control, limit, window, skip = _sources(fact_rows, return_rows)

    # enrich
    kept = [r for r in sales if r["qty"] > 2 and r["region"] != "central"]
    coded = [
        {**r, "total": r["price"] * r["qty"],
         "code": r["product"].strip()[0:3].upper() + str(r["day"].year)}
        for r in kept
    ]
    joined = ref.hash_join(coded, DIM, customers, "customer_id", "id", False)
    enrich_schema = [("id", "INT"), ("region", "STRING"), ("code", "STRING"),
                     ("total", "DECIMAL"), ("name", "STRING"), ("tier", "STRING")]
    ranked = ref.stable_sort(joined, "total", True)[:limit]

    # rollup
    attached = ref.hash_join(sales[window[0]:window[1]], DIM, customers, "customer_id", "id", True)
    for r in attached:
        gross = r["price"] * r["qty"]
        r["net"] = None if r["discount"] is None else gross - gross * r["discount"]
    summary = []
    for (region, tier), members in ref.group_rows(attached, ["region", "tier"]).items():
        nets = [m["net"] for m in members if m["net"] is not None]
        summary.append({
            "region": region, "tier": tier,
            "net_total": sum(nets[1:], nets[0]) if nets else None,
            "avg_price": ref.average([m["price"] for m in members]),
            "first_day": min(m["day"] for m in members),
            "max_qty": max(m["qty"] for m in members),
            "n": len(members),
        })
    rollup_schema = [("region", "STRING"), ("tier", "STRING"), ("net_total", "DECIMAL"),
                     ("avg_price", "DECIMAL"), ("first_day", "DATE"), ("max_qty", "INT"),
                     ("n", "INT")]
    summary = ref.stable_sort(summary, "net_total", True)

    # returns_mix
    merged = ref.distinct(RETURNS, early + late)
    returns_schema = [("rid", "INT"), ("sale_id", "INT"), ("refund", "DECIMAL"), ("source", "STRING")]
    paged = [
        {"rid": r["rid"], "sale_id": r["sale_id"], "refund": r["amount"], "source": "returns"}
        for r in merged
    ][skip:]

    # control
    control_schema = TARGETS + [("share", "DECIMAL")]
    picked = [
        {**t, "share": ref.divide(t["target"], 4)}
        for t in targets if t["target"] > Decimal("100.00")
    ]
    high = sum(1 for t in picked if t["target"] > Decimal("5000.00"))

    pipelines = [
        Pipeline("enrich", enrich, ("sales", "customers"), enrich_schema, "csv", ranked),
        Pipeline("rollup", rollup, ("sales", "customers"), rollup_schema, "json", summary),
        Pipeline("returns_mix", returns, (), returns_schema, "json", paged),
        Pipeline("control", control, (), control_schema, "json", picked),
    ]
    side_effects = {
        "rollup": {"posts": [(ROLLUP_URL, rollup_schema, summary)], "files": {}},
        "returns_mix": {"posts": [], "files": {"returns_out.json": (returns_schema, paged)}},
        "control": {
            "posts": [(HIGH_URL, control_schema, picked)] * high,
            "files": {"low.json": (control_schema, picked)} if high < len(picked) else {},
        },
    }
    return State(
        sales_csv=ref.to_csv(FACT, sales),
        customers_json=ref.to_json(DIM, customers, omit_nulls=True),
        files={
            "returns.csv": ref.to_csv(RETURNS, early),
            "returns_late.json": ref.to_json(RETURNS, late, omit_nulls=True),
        },
        routes={TARGETS_URL: ref.to_json(TARGETS, targets)},
        pipelines=pipelines,
        side_effects=side_effects,
        input_rows=len(sales) + len(customers) + len(early) + len(late) + len(targets),
    )


class MemoryFiles:
    """File handle fake: reads from and writes to a dict."""

    def __init__(self, files: dict) -> None:
        self.files = files
        self.written: dict = {}

    def read_bytes(self, path: str) -> bytes:
        try:
            return self.files[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    def write_bytes(self, path: str, data: bytes) -> None:
        self.written[path] = data


class MemoryHttp:
    """HTTP handle fake: GET serves fixed routes, POST is recorded."""

    def __init__(self, routes: dict) -> None:
        self.routes = routes
        self.posts: list = []

    def get(self, url: str, timeout: float):
        return (200, self.routes[url]) if url in self.routes else (404, b"")

    def post(self, url: str, body: bytes, timeout: float):
        self.posts.append((url, body))
        return 201, b""


def run_round(state: State, clock: Clock | None = None) -> Round:
    """One timed job over all pipelines; ``clock`` times its phases
    (plain wall time without one). Outputs are checked after the clock
    stops."""
    clock = clock or Clock(probing=False)
    compile_s = run_s = 0.0
    produced = []
    errors = []
    clock.lap()
    try:
        tables = {
            "sales": io_adapters.table_from_csv(state.sales_csv, anka_schema(FACT)),
            "customers": io_adapters.table_from_json(state.customers_json, anka_schema(DIM)),
        }
    except AnkaError as exc:
        wall = clock.lap()
        errors.append(f"decode: {exc}")
        return Round(wall, 1, state.input_rows, len(state.pipelines), len(state.pipelines), [], errors)
    wall = clock.lap()
    for p in state.pipelines:
        files, http = MemoryFiles(state.files), MemoryHttp(state.routes)
        adapter = io_adapters.IoAdapter(sandbox=False, file_ops=files, http_ops=http)
        try:
            program = parser.parse(p.source)
            checked = validator.validate(program)
            lap = clock.lap()
            compile_s += lap
            wall += lap
            if not checked.ok:
                raise ValueError(f"does not validate: {checked.errors[0]}")
            table = interpreter.run_pipeline(program, {n: tables[n] for n in p.inputs}, adapter)
            lap = clock.lap()
            run_s += lap
            wall += lap
            encode = io_adapters.table_to_csv if p.out_format == "csv" else io_adapters.table_to_json
            produced.append((p, table, encode(table), files.written, http.posts))
        except Exception as exc:  # a failed operation is counted, the run goes on
            errors.append(f"{p.name}: {type(exc).__name__}: {exc}")
            produced.append((p, None, b"", {}, []))
        wall += clock.lap()

    outputs = []
    failed = 0
    for p, table, encoded, written, posts in produced:
        outputs.append(encoded)
        if table is None:
            failed += 1
            continue
        problem = check(state, p, table, encoded, written, posts)
        if problem:
            failed += 1
            errors.append(f"{p.name}: {problem}")
    return Round(wall, 1, state.input_rows, len(state.pipelines), failed, outputs, errors,
                 latencies=[wall], compiles=[compile_s], runs=[run_s])


def check_table(schema, expected, table) -> bool:
    actual = [(f.name, f.type.value) for f in table.schema.fields]
    return actual == list(schema) and ref.rows_equal(schema, expected, table.rows)


def _decoded_matches(schema, expected, data: bytes, fmt: str) -> bool:
    if fmt == "csv":
        # CSV cannot tell a null STRING from an empty one; both read as "".
        strings = [n for n, t in schema if t == "STRING"]
        expected = [{**r, **{n: r[n] or "" for n in strings}} for r in expected]
        rows = ref.read_csv(schema, data)
    else:
        rows = ref.read_json(schema, data)
    return rows is not None and ref.rows_equal(
        schema, expected, [tuple(r[n] for n, _ in schema) for r in rows]
    )


def check(state: State, p: Pipeline, table, encoded, written, posts):
    """Return a description of the first mismatch, or None."""
    if not check_table(p.out_schema, p.expected, table):
        return "output table differs from the reference"
    if not _decoded_matches(p.out_schema, p.expected, encoded, p.out_format):
        return "encoded output differs from the reference"
    effects = state.side_effects.get(p.name, {"posts": [], "files": {}})
    if len(posts) != len(effects["posts"]):
        return f"{len(posts)} POSTs, expected {len(effects['posts'])}"
    for (url, body), (want_url, schema, rows) in zip(posts, effects["posts"]):
        if url != want_url or not _decoded_matches(schema, rows, body, "json"):
            return f"POST to {url} differs from the reference"
    if set(written) != set(effects["files"]):
        return f"wrote {sorted(written)}, expected {sorted(effects['files'])}"
    for path, (schema, rows) in effects["files"].items():
        if not _decoded_matches(schema, rows, written[path], "json"):
            return f"file {path} differs from the reference"
    return None
