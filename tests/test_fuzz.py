"""Seeded fuzz of the two text inputs: tangle expressions and action files.

Random token strings go through ``parse_expr`` and ``realize``, and random
action specs through ``load_action``.  Each may reject its input only with
its documented error (``ParseError``/``TangleError``, ``GroupError``), which
the command line turns into exit code 2 or 3; anything else would surface
as a traceback.  The seeds are fixed, so a failure replays exactly.
"""

import copy
import json
import random
from pathlib import Path

from planarbox.expressions import ParseError, parse_expr, random_expr, realize, render_expr
from planarbox.groups import GroupError, load_action
from planarbox.tangles import TangleError

ACTIONS = Path(__file__).resolve().parent.parent / "actions"

# colours stay small, so every realized tree is cheap; colours above
# expressions.MAX_COLOUR are a parse error with tests of their own
NUMBERS = ("0+", "0-", "-1", "0", "1", "2", "3", "4", "5")
TOKENS = (
    "(", ")", "gen", "compose", "renumber", "unit", "plus", "minus", "id", "M",
    "E", "I", "Eprime", "jones", "x", *NUMBERS,
)


def token_string(rng: random.Random) -> str:
    """Either random tokens or a valid expression with a few tokens changed."""
    if rng.random() < 0.3:
        return " ".join(rng.choice(TOKENS) for _ in range(rng.randint(0, 24)))
    text = render_expr(random_expr(rng, max_colour=4, depth=rng.randint(0, 3)))
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(tokens) + 1)
        move = rng.random()
        if i == len(tokens) or move < 0.1:
            tokens.insert(i, rng.choice(TOKENS))
        elif move < 0.2:
            del tokens[i]
        elif move < 0.4:
            tokens[i] = rng.choice(TOKENS)
        else:
            # a changed colour, slot or image mostly still parses, so these
            # reach the colour and slot checks of realize
            numbers = [j for j, tok in enumerate(tokens) if tok in NUMBERS]
            if numbers:
                tokens[rng.choice(numbers)] = rng.choice(NUMBERS)
    return " ".join(tokens)


def test_expressions_raise_only_documented_errors():
    rng = random.Random(20261018)
    outcomes = {"realized": 0, "parse": 0, "tangle": 0}
    for _ in range(10000):
        text = token_string(rng)
        try:
            realize(parse_expr(text))
            outcomes["realized"] += 1
        except ParseError:
            outcomes["parse"] += 1
        except TangleError:
            outcomes["tangle"] += 1
    # the mix reaches every outcome, so both layers really are exercised
    assert min(outcomes.values()) > 200, outcomes


def junk(rng: random.Random):
    return rng.choice([
        rng.randint(-2, 7), True, None, "1", 1.5, [], {}, [rng.randint(-1, 3)],
        [[0, 1], [1, 0]], {"table": [[0]]},
    ])


def mutate(spec, rng: random.Random):
    """Replace, drop or add one entry somewhere inside a nested spec."""
    if isinstance(spec, dict) and spec:
        key = rng.choice(sorted(spec))
        move = rng.random()
        if move < 0.2:
            del spec[key]
        elif move < 0.4:
            spec[key] = junk(rng)
        elif move < 0.5:
            spec[rng.choice(["permutations", "degree", "names", "9", "action"])] = junk(rng)
        else:
            spec[key] = mutate(spec[key], rng)
        return spec
    if isinstance(spec, list) and spec:
        i = rng.randrange(len(spec))
        spec[i] = junk(rng) if rng.random() < 0.4 else mutate(spec[i], rng)
        return spec
    return junk(rng)


def test_action_specs_raise_only_group_errors():
    seeds = [json.loads((ACTIONS / f"{stem}.json").read_text())
             for stem in ("z3xz2", "z4xz2", "z3-trivial")]
    seeds.append({"group": {"permutations": [[1, 2, 0]], "degree": 3},
                  "theta": {"permutations": [[1, 0]], "degree": 2},
                  "action": {"1": [0, 2, 1]}})
    rng = random.Random(20261019)
    loaded = rejected = 0
    # a spec with a key outside its documented shape is refused, so about
    # 2% of mutated specs load; 20000 draws keep the floors below met
    for _ in range(20000):
        spec = copy.deepcopy(rng.choice(seeds))
        for _ in range(rng.randint(1, 3)):
            spec = mutate(spec, rng)
        try:
            load_action(spec)
            loaded += 1
        except GroupError:
            rejected += 1
    assert loaded > 200 and rejected > 2000, (loaded, rejected)
