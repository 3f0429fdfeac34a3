"""Seeded, offline input generators for the four benchmark workloads.

Every generator reads only the packaged KB of the checkout and derives
all randomness from ``(--seed, round number)`` through :func:`rng`, so
the same seed always yields the same byte-identical rounds.  The
program under test sees only the files written here.

Each generator returns the properties its workload's rationale rests
on (distinct surfaces, distinct contexts, distinct objects versus store
size, KB unit count); ``run.py`` prints them in the run record.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from checks import evaluate_equation
from kbfile import KbUnit

# Fixed input sizes.  Per-item cost depends on cache warmth (the linking
# match cache warms as a corpus grows), so sizes never scale with time.
ANNOTATE_LINES = 54
AUGMENT_PROBLEMS = 60
TASKS_PER_FAMILY = 2000
ANNOTATED_SENTENCES = 200
STORE_TRIPLETS = 10000
DISTINCT_OBJECTS = 250

TASK_FAMILIES = (
    "kind_match",
    "comparable",
    "dimension_prediction",
    "dimension_arithmetic",
    "magnitude_comparison",
    "unit_conversion",
)

# SI prefixes: English name, symbol, Chinese name, factor.
SI_PREFIXES = (
    ("Exa", "E", "艾", 1e18),
    ("Peta", "P", "拍", 1e15),
    ("Tera", "T", "太", 1e12),
    ("Giga", "G", "吉", 1e9),
    ("Mega", "M", "兆", 1e6),
    ("Kilo", "k", "千", 1e3),
    ("Hecto", "h", "百", 1e2),
    ("Deca", "da", "十", 1e1),
    ("Deci", "d", "分", 1e-1),
    ("Centi", "c", "厘", 1e-2),
    ("Milli", "m", "毫", 1e-3),
    ("Micro", "μ", "微", 1e-6),
    ("Nano", "n", "纳", 1e-9),
    ("Pico", "p", "皮", 1e-12),
    ("Femto", "f", "飞", 1e-15),
    ("Atto", "a", "阿", 1e-18),
)

# Packaged units that take SI prefixes in common use.
SI_BASES = ("M", "GM", "SEC", "A", "K", "MOL", "CD", "N", "J", "W", "PA", "HZ", "L", "TESLA", "EV", "BAR")


def rng(seed: int, label: str) -> random.Random:
    return random.Random(f"perfbench|{seed}|{label}")


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


# ---------------------------------------------------------------------------
# Scale KB by SI-prefix expansion


def si_expanded_kb(packaged: list[KbUnit]) -> list[str]:
    """KB lines: the packaged units plus every SI-prefixed variant of
    the prefixable bases that the packaged KB does not already hold.

    A prefixed unit whose conversion value is exactly 1.0 would be a
    second standard unit of its kind, which the KB forbids, so it is
    left out (kiloliter).
    """
    by_id = {u.unit_id: u for u in packaged}
    lines = [u.line for u in packaged]
    for base_id in SI_BASES:
        base = by_id[base_id]
        for name, sym, zh, factor in SI_PREFIXES:
            uid = f"{name}{base_id}"
            conv = base.conversion_val * factor
            if uid in by_id or conv == 1.0:
                continue
            lower = name.lower()
            cols = [
                uid,
                f"{zh}{base.label_zh}",
                f"{lower}{base.label_en}",
                "|".join(f"{sym}{s}" for s in base.symbol),
                "|".join(f"{lower}{a}" for a in base.alias if a.isascii()),
                f"{lower}-prefixed {base.label_en}",
                "|".join(base.keywords),
                repr(round(max(0.1, base.frequency * 0.4), 6)),
                base.quantity_kind,
                base.dimension,
                repr(conv),
            ]
            lines.append("\t".join(cols))
    return lines


# ---------------------------------------------------------------------------
# annotate: a diverse bilingual corpus

EN_SUBJECTS = (
    "the probe", "our sample", "a courier", "the pump", "this cable", "the tank", "a cyclist",
    "the reactor", "the lab", "a farmer", "the bridge", "that engine", "the parcel", "a diver",
    "the kiln", "the valve", "a rover", "the crane", "the battery", "a glacier", "the orchard",
)
EN_VERBS = (
    "measured", "reported", "logged", "delivered", "used", "recorded", "carried", "needed",
    "produced", "lost", "gained", "held", "moved", "drew", "stored", "covered",
)
EN_TRAILS = (
    "", "", "of it", "in all", "per run", "or so", "each", "at noon", "total", "more", "net",
    "by hand", "at most", "on site",
)
EN_FILLERS = (
    "The committee met again after lunch.", "Nobody expected the storm to pass so quickly.",
    "Results will be shared with the wider team.", "She smiled and closed the notebook.",
    "The old road winds through quiet hills.", "Please file the report before Friday.",
)
ZH_SUBJECTS = ("实验室", "这台泵", "小王", "那座桥", "仓库", "这根电缆", "农场", "探测器", "水箱", "工厂")
ZH_VERBS = ("测得", "记录了", "运来", "需要", "消耗了", "储存了", "产生了", "搬走了")
ZH_TRAILS = ("", "", "左右", "的水", "多", "的货", "以上", "整")
ZH_FILLERS = ("会议在午饭后继续进行。", "大家都没想到风暴这么快就过去了。", "请在周五之前提交报告。")


class Deck:
    """Draws without replacement and reshuffles when empty, so every
    round holds each kind in fixed proportion (steadier per-round cost
    than independent draws)."""

    def __init__(self, r: random.Random, cards):
        self.r, self.cards, self.pile = r, list(cards), []

    def draw(self):
        if not self.pile:
            self.pile = self.cards[:]
            self.r.shuffle(self.pile)
        return self.pile.pop()


def _number(r: random.Random, kind: int) -> str:
    if kind == 0:
        return str(r.randint(1, 999))
    if kind == 1:
        return f"{r.randint(0, 999)}.{r.randint(1, 99)}"
    if kind == 2:
        return f"{r.randint(1, 99)},{r.randint(0, 999):03d}"
    if kind == 3:
        return f"{r.randint(1, 9)}.{r.randint(0, 9)}e{r.choice(('', '-'))}{r.randint(1, 6)}"
    return f"{r.randint(1, 99)}%"


def _typo(r: random.Random, surface: str) -> str:
    """One-character edit (substitute, delete, insert) inside the surface."""
    if len(surface) < 3:
        return surface
    i = r.randrange(1, len(surface))
    letter = r.choice("abcdefghijklmnopqrstuvwxyz") if surface.isascii() else r.choice("的了是在量")
    op = r.randrange(3)
    if op == 0:
        return surface[:i] + letter + surface[i + 1:]
    if op == 1:
        return surface[:i] + surface[i + 1:]
    return surface[:i] + letter + surface[i:]


# (Chinese line, quantities in the line); 18 kinds, each once per 18 lines.
LINE_PLAN = tuple((zh, count) for zh in (True, False, False) for count in (0, 1, 1, 2, 2, 3))


def annotate_corpus(seed: int, round_no: int, packaged: list[KbUnit], out: Path) -> dict:
    """Lines with 0-3 quantities; numbers as ints, decimals, thousands
    separators, exponents and percents; unit surfaces drawn from every
    form of every unit, a quarter of them with a one-character typo,
    often followed by words that fall inside the unit window."""
    r = rng(seed, f"annotate/{round_no}")
    plan = list(LINE_PLAN) * (ANNOTATE_LINES // len(LINE_PLAN))
    r.shuffle(plan)
    units, kinds, typos = Deck(r, packaged), Deck(r, range(5)), Deck(r, (True, False, False, False))
    en_trails, zh_trails = Deck(r, EN_TRAILS), Deck(r, ZH_TRAILS)
    surfaces: set[str] = set()

    def quantity(zh: bool) -> str:
        number = _number(r, kinds.draw())
        if number.endswith("%"):
            return number
        unit = units.draw()
        forms = [f for f in unit.surface_forms() if zh or f.isascii()] or list(unit.surface_forms())
        surface = r.choice(forms)
        if typos.draw():
            surface = _typo(r, surface)
        surfaces.add(surface)
        if zh:
            return f"{number}{surface}{zh_trails.draw()}"
        trail = en_trails.draw()
        return f"{number}{'' if r.random() < 0.2 else ' '}{surface}" + (f" {trail}" if trail else "")

    lines: list[str] = []
    for zh, count in plan:
        quantities = [quantity(zh) for _ in range(count)]
        if zh:
            if not quantities:
                lines.append(r.choice(ZH_FILLERS))
                continue
            body = "，".join(f"{r.choice(ZH_VERBS)}{q}" for q in quantities)
            lines.append(f"{r.choice(ZH_SUBJECTS)}{body}。")
        else:
            if not quantities:
                lines.append(r.choice(EN_FILLERS))
                continue
            body = ", then ".join(f"{r.choice(EN_VERBS)} {q}" for q in quantities)
            subject = r.choice(EN_SUBJECTS)
            lines.append(f"{subject[0].upper()}{subject[1:]} {body} on day {r.randint(2, 28)}.")
    write_lines(out, lines)
    return {
        "lines": len(lines),
        "distinct_lines": len(set(lines)),
        "distinct_unit_surfaces": len(surfaces),
    }


# ---------------------------------------------------------------------------
# augment: word problems whose equations check

EN_NAMES = ("Ava", "Ben", "Chen", "Dara", "Eli", "Fay", "Gus", "Hana", "Ivo", "Jun", "Kai", "Lea", "Mo", "Nia")
EN_ITEMS = ("rice", "sand", "paint", "water", "flour", "copper wire", "rope", "juice", "gravel", "tea")
ZH_NAMES = ("小王", "小李", "小红", "老张", "小明", "阿芳", "小刚", "老陈")
ZH_ITEMS = ("大米", "沙子", "油漆", "清水", "面粉", "铜线", "果汁", "茶叶")

# (unit id, English plural used in text, Chinese label); every surface is
# an exact KB form so both the body and the question units link.
PROBLEM_UNITS = (
    ("KiloGM", "kilograms", "千克"), ("GM", "grams", "克"), ("M", "meters", "米"),
    ("KiloM", "kilometers", "千米"), ("CentiM", "centimeters", "厘米"), ("L", "liters", "升"),
    ("MilliL", "milliliters", "毫升"), ("HR", "hours", "小时"), ("MIN", "minutes", "分钟"),
    ("TON_Metric", "tons", "吨"), ("MilliM", "millimeters", "毫米"), ("LB", "pounds", "磅"),
)


def _value(r: random.Random) -> str:
    if r.random() < 0.5:
        return str(r.randint(2, 900))
    return f"{r.randint(1, 300)}.{r.randint(1, 9)}"


def augment_problems(seed: int, round_no: int, out: Path) -> dict:
    r = rng(seed, f"augment/{round_no}")
    units = Deck(r, PROBLEM_UNITS)
    lines: list[str] = []
    for i in range(AUGMENT_PROBLEMS):
        uid, plural, zh_label = units.draw()
        a, b = _value(r), _value(r)
        op = r.choice("+-") if float(a) > float(b) else "+"
        if i % 2:
            name, item = r.choice(EN_NAMES), r.choice(EN_ITEMS)
            verb = "used" if op == "-" else "added"
            body = f"{name} had {a} {plural} of {item} and {verb} {b} {plural} on day {r.randint(2, 28)}."
            question = f"How many {plural} of {item} does {name} have now?"
        else:
            name, item = r.choice(ZH_NAMES), r.choice(ZH_ITEMS)
            verb = "用掉" if op == "-" else "又买了"
            body = f"{name}有{a}{zh_label}{item}，第{r.randint(2, 28)}天{verb}{b}{zh_label}。"
            question = f"{name}现在有多少{zh_label}{item}？"
        equation = f"{a}{op}{b}"
        problem = {
            "id": f"p{seed}-{round_no}-{i:04d}",
            "body": body,
            "question": question,
            "equation": equation,
            "answer": evaluate_equation(equation),
            "answer_unit": uid,
        }
        lines.append(json.dumps(problem, ensure_ascii=False))
    write_lines(out, lines)
    contexts = {json.loads(line)["body"] for line in lines}
    return {"problems": len(lines), "distinct_bodies": len(contexts)}


# ---------------------------------------------------------------------------
# gen-tasks: annotated sentences for dimension_prediction

def annotated_sentences(seed: int, round_no: int, units: list[KbUnit], out: Path) -> dict:
    """Sentences with one linked mention each, spans in UTF-8 bytes."""
    r = rng(seed, f"annotated/{round_no}")
    lines = []
    for i in range(ANNOTATED_SENTENCES):
        unit = r.choice(units)
        value = _value(r)
        prefix = f"{r.choice(EN_SUBJECTS).capitalize()} {r.choice(EN_VERBS)} "
        surface = unit.label_en
        text = f"{prefix}{value} {surface} on day {r.randint(2, 28)}."
        v0 = len(prefix.encode("utf-8"))
        v1 = v0 + len(value.encode("utf-8"))
        u0 = v1 + 1
        u1 = u0 + len(surface.encode("utf-8"))
        mention = {
            "value_span": [v0, v1],
            "unit_span": [u0, u1],
            "value": float(value),
            "unit_surface": surface,
            "linked_unit": unit.unit_id,
            "link_score": 0.5,
        }
        record = {"line_no": i + 1, "text": text, "provenance": "rule", "mentions": [mention]}
        lines.append(json.dumps(record, ensure_ascii=False))
    write_lines(out, lines)
    return {"annotated_sentences": len(lines)}


# ---------------------------------------------------------------------------
# bootstrap: a large store over a small pool of objects

QUANTITY_PREDICATES = (
    ("height", ("M", "CentiM", "FT")), ("weight", ("KiloGM", "LB", "GM")),
    ("length", ("M", "KiloM", "MI")), ("runtime", ("MIN", "HR", "SEC")),
    ("capacity", ("L", "MilliL")), ("power", ("W", "KiloW", "HP")),
    ("area", ("M2", "HA", "KiloM2")), ("pressure", ("KiloPA", "BAR", "ATM")),
    ("speed", ("KiloM-PER-HR", "MI-PER-HR", "M-PER-SEC")), ("energy", ("J", "KiloJ", "CAL")),
)
PLAIN_PREDICATES = (
    ("color", ("red", "blue", "green", "amber", "grey", "violet")),
    ("city", ("Paris", "Osaka", "Lima", "Oslo", "Cairo", "Quito")),
    ("genre", ("jazz", "folk", "opera", "techno", "blues")),
    ("material", ("oak", "steel", "glass", "granite", "wool")),
)


def triplet_store(seed: int, round_no: int, packaged: list[KbUnit], out: Path) -> dict:
    r = rng(seed, f"bootstrap/{round_no}")
    by_id = {u.unit_id: u for u in packaged}
    predicates = Deck(r, QUANTITY_PREDICATES)
    pool: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    while len(pool) < DISTINCT_OBJECTS:
        if len(pool) % 4:
            predicate, unit_ids = predicates.draw()
            unit = by_id[r.choice(unit_ids)]
            obj = f"{_value(r)} {(unit.symbol + (unit.label_en,))[0]}"
        else:
            predicate, words = r.choice(PLAIN_PREDICATES)
            obj = f"{r.choice(words)} {r.choice(('', 'dark ', 'old ', 'north '))}{r.randint(1, 99)}".replace("  ", " ")
        if (predicate, obj) not in seen:
            seen.add((predicate, obj))
            pool.append((predicate, obj))
    # every object fills the same number of triplets
    picks = pool * (STORE_TRIPLETS // DISTINCT_OBJECTS)
    r.shuffle(picks)
    lines = []
    for i, (predicate, obj) in enumerate(picks):
        lines.append(f"entity-{seed}-{round_no}-{i:06d}\t{predicate}\t{obj}")
    write_lines(out, lines)
    return {
        "triplets": len(lines),
        "distinct_objects": len({line.rsplit("\t", 1)[1] for line in lines}),
    }
