"""Seeded corpus of expressions for the ``classes`` workload.

Each entry is the source text handed to ``motivecount eval`` together with
the tree it was rendered from, which the independent evaluators read; the
package's parser is never asked for the tree.  The corpus has a fixed make-up
(``SHAPES`` entries of each top-level shape) so that its cost varies little
from seed to seed.  Every tree's degree is at most ``MAX_DEGREE``, every
Hilbert scheme has at most 8 points, differences subtract only terms of
lower degree, and Sym is applied only to effective sub-expressions.
"""

from __future__ import annotations

import random

from independent import tree_degree

MAX_DEGREE = 200

#: entries per top-level shape; 6 shapes give 300 expressions
SHAPES = {"atom": 50, "sum": 50, "diff": 50, "prod": 50, "pow": 50, "sym": 50}

#: Sym keeps order * inner degree at most this: the zeta expansion costs
#: grow about cubically in the order
SYM_DEGREE = 40


def render(node) -> str:
    """Source text of a tree in the expression language."""
    kind = node[0]
    if kind == "lit":
        return str(node[1])
    if kind == "L":
        return "L"
    if kind in ("A", "P"):
        return f"{kind}{node[1]}"
    if kind == "Gr":
        return f"Gr({node[1]},{node[2]})"
    if kind == "Hilb":
        return f"Hilb{node[1]}"
    if kind in ("Lin", "C"):
        return f"{kind}({node[1]})"
    if kind == "Omega13":
        return "Omega(1,3)"
    if kind == "sum":
        return " + ".join(_wrapped(t) for t in node[1])
    if kind == "diff":
        return f"{_wrapped(node[1])} - {_wrapped(node[2])}"
    if kind == "prod":
        return "*".join(_wrapped(t) for t in node[1])
    if kind == "pow":
        return f"{_wrapped(node[1])}^{node[2]}"
    if kind == "sym":
        return f"Sym {node[1]}({render(node[2])})"
    raise ValueError(f"not a tree node: {node!r}")


def _wrapped(node) -> str:
    text = render(node)
    return f"({text})" if node[0] in ("sum", "diff", "prod", "pow") else text


def _atom(rng: random.Random, maxdeg: int):
    """A random atom of degree at most maxdeg (>= 0)."""
    choices = ["lit", "P", "A"]
    if maxdeg >= 1:
        choices += ["L", "Gr"]
    if maxdeg >= 2:
        choices += ["Hilb", "Lin"]
    if maxdeg >= 3:
        choices += ["C"]
    if maxdeg >= 5:
        choices += ["Omega13"]
    kind = rng.choice(choices)
    if kind == "lit":
        return ("lit", rng.randint(1, 20))
    if kind == "L":
        return ("L",)
    if kind in ("A", "P"):
        return (kind, rng.randint(0, min(maxdeg, 30)))
    if kind == "Gr":
        pairs = [(k, n) for n in range(1, 13) for k in range(1, n)
                 if k * (n - k) <= maxdeg]
        return ("Gr",) + rng.choice(pairs)
    if kind == "Hilb":
        return ("Hilb", rng.randint(1, min(8, maxdeg // 2)))
    if kind in ("Lin", "C"):
        extra = 1 if kind == "C" else 0
        ds = [d for d in range(1, 9) if d * (d + 3) // 2 + extra <= maxdeg]
        return (kind, rng.choice(ds))
    return ("Omega13",)


def _effective(rng: random.Random, maxdeg: int, depth: int):
    """A tree with nonnegative coefficients: atoms, sums, products, Sym."""
    if depth <= 0 or maxdeg < 2:
        return _atom(rng, maxdeg)
    shape = rng.choice(("atom", "atom", "sum", "prod", "sym"))
    if shape == "sum":
        return ("sum", tuple(_effective(rng, maxdeg, depth - 1) for _ in range(rng.randint(2, 3))))
    if shape == "prod":
        left = _effective(rng, maxdeg // 2, depth - 1)
        right = _effective(rng, maxdeg - tree_degree(left), depth - 1)
        return ("prod", (left, right))
    if shape == "sym":
        return _sym(rng, maxdeg, depth - 1)
    return _atom(rng, maxdeg)


def _sym(rng: random.Random, maxdeg: int, depth: int):
    order = rng.randint(2, min(6, maxdeg))
    inner_max = min(maxdeg, SYM_DEGREE) // order
    return ("sym", order, _effective(rng, inner_max, depth))


def _positive(rng: random.Random, maxdeg: int, depth: int):
    """A tree whose leading coefficient is positive: an effective tree, or a
    difference that subtracts a tree of strictly lower degree."""
    left = _effective(rng, maxdeg, depth)
    d = tree_degree(left)
    if d < 1 or rng.random() < 0.5:
        return left
    return ("diff", left, _effective(rng, d - 1, depth))


def _top(rng: random.Random, shape: str):
    if shape == "atom":
        return _atom(rng, 60)
    if shape == "sum":
        return ("sum", tuple(_positive(rng, 60, 1) for _ in range(rng.randint(2, 4))))
    if shape == "diff":
        left = _positive(rng, 80, 2)
        while tree_degree(left) < 1:
            left = _positive(rng, 80, 2)
        return ("diff", left, _positive(rng, tree_degree(left) - 1, 1))
    if shape == "prod":
        factors = []
        budget = 120
        for _ in range(rng.randint(2, 3)):
            f = _positive(rng, budget // 2, 1)
            factors.append(f)
            budget -= tree_degree(f)
        return ("prod", tuple(factors))
    if shape == "pow":
        k = rng.randint(2, 4)
        return ("pow", _positive(rng, 40 // k, 1), k)
    return _sym(rng, MAX_DEGREE, 1)


def build(seed: int) -> list[tuple[str, tuple]]:
    """The corpus for a seed: (source text, tree) pairs, shapes interleaved."""
    rng = random.Random(seed)
    entries = [(shape, _top(rng, shape)) for shape, n in SHAPES.items() for _ in range(n)]
    rng.shuffle(entries)
    out = []
    for _, tree in entries:
        if tree_degree(tree) > MAX_DEGREE:
            raise AssertionError(f"corpus tree over the degree cap: {render(tree)}")
        out.append((render(tree), tree))
    return out
