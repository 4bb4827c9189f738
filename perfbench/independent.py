"""Expected answers computed apart from the package under test.

Nothing here imports ``motivecount``.  Every value is either computed in
plain integers from a definition (Gaussian binomials, the Hilbert-scheme
generating function, Newton's identity for symmetric powers) or transcribed
from the paper's tables (Euler numbers, the punctual row sums).
"""

from __future__ import annotations

from math import comb

# -- moduli classes ------------------------------------------------------------

#: Euler numbers of M(1,1) ... M(5,2) as stated in the paper
EULER = {"m11": 3, "m21": 6, "m31": 27, "m41": 192, "m51": 1695, "m52": 1695}

#: plane-curve degree d of each target; the moduli dimension is d^2 + 1
CURVE_DEGREE = {"m11": 1, "m21": 2, "m31": 3, "m41": 4, "m51": 5, "m52": 5}

TARGETS = tuple(EULER)

#: Euler number of the pinned class of 6-point subschemes on a conic
OMEGA26_STATED_EULER = 189


def check_moduli_classes(classes: dict[str, list[int]]) -> list[str]:
    """Problems with a set of assembled moduli classes (coefficient lists,
    ascending powers of L); an empty list means every property holds."""
    problems = []
    if set(classes) != set(TARGETS):
        return [f"targets {sorted(classes)} != {sorted(TARGETS)}"]
    for t in TARGETS:
        cs = classes[t]
        if sum(cs) != EULER[t]:
            problems.append(f"{t}: euler {sum(cs)} != {EULER[t]}")
        if len(cs) - 1 != CURVE_DEGREE[t] ** 2 + 1:
            problems.append(f"{t}: degree {len(cs) - 1} != {CURVE_DEGREE[t] ** 2 + 1}")
        if cs != cs[::-1]:
            problems.append(f"{t}: not palindromic")
        if not cs or cs[0] != 1:
            problems.append(f"{t}: constant term is not 1")
    if classes["m51"] != classes["m52"]:
        problems.append("m51 != m52")
    return problems


# -- finite-field counts -------------------------------------------------------

def gaussian_binomial(n: int, k: int, x: int) -> int:
    """[n choose k] at L = x by the q-Pascal rule
    [n, k] = [n-1, k-1] + x^k [n-1, k]; at x = q it counts the k-dimensional
    subspaces of F_q^n, at x = 1 it is the binomial coefficient."""
    if not 0 <= k <= n:
        return 0
    row = [1] + [0] * k  # row[j] = [m, j] for the current m, starting at m = 0
    for _ in range(n):
        row = [1] + [row[j - 1] + x ** j * row[j] for j in range(1, k + 1)]
    return row[k]


#: row-sum classes of the punctual stratification tables, as coefficient
#: lists in ascending powers of q, summed by hand from the rows
#: (P1 = 1 + q, A1 = q, (A1-1)*A1 = q^2 - q, (A2-1)*A1 = q^3 - q)
ROW_SUM = {
    ("ribbon", 1): (1,),
    ("ribbon", 2): (1, 1),
    ("ribbon", 3): (1, 1),          # 1 + A1
    ("ribbon", 4): (1, 1, 1),       # P1 + (A1-1)A1 + A1
    ("ribbon", 5): (1, 0, 2),       # 1 + (A1-1)A1 + A1 + (A1-1)A1 + A1
    ("ribbon", 6): (1, 1, 1, 1),    # P1 + (A1-1)A1 + A1 + (A2-1)A1 + A1
    ("node", 1): (1,),
    ("node", 2): (1, 1),
    ("node", 3): (1, 2),
    ("node", 4): (1, 3),
    ("node", 5): (1, 4),
    ("node", 6): (1, 5),
}

#: the ribbon colength-5 rows list a family that has colength 4: the true
#: count is the row sum minus that family, 2q^2 + 1 - (q - 1)q = q^2 + q + 1
TRUE_COUNT_CLASS = dict(ROW_SUM)
TRUE_COUNT_CLASS[("ribbon", 5)] = (1, 1, 1)


def poly_at(coeffs, x: int) -> int:
    return sum(c * x ** i for i, c in enumerate(coeffs))


def row_sum(curve: str, colength: int, q: int) -> int:
    """Tabulated ideal count (the oracle's ``expected`` column)."""
    return poly_at(ROW_SUM[(curve, colength)], q)


def true_ideal_count(curve: str, colength: int, q: int) -> int:
    """Number of colength-c ideals in the germ algebra over F_q."""
    return poly_at(TRUE_COUNT_CLASS[(curve, colength)], q)


# -- Hilbert scheme of points -----------------------------------------------------

def hilb_p2_value(n: int, x: int) -> int:
    """t^n coefficient of prod_{m>=1} 1/((1 - x^(m-1) t^m)(1 - x^m t^m)(1 - x^(m+1) t^m))
    in integers: the class of Hilb^n(P^2) at L = x."""
    series = [1] + [0] * n
    for m in range(1, n + 1):
        for w in (m - 1, m, m + 1):
            a = x ** w
            for k in range(m, n + 1):
                series[k] += a * series[k - m]
    return series[n]


# -- expression trees -------------------------------------------------------------
#
# A tree is a tuple whose first entry names the node:
#   ("lit", n) ("L",) ("A", n) ("P", n) ("Gr", k, n) ("Hilb", n) ("Lin", d)
#   ("C", d) ("Omega13",) ("sum", (t, ...)) ("diff", t, t) ("prod", (t, ...))
#   ("pow", t, k) ("sym", n, t)


def _atom_value(node, x: int) -> int:
    kind = node[0]
    if kind == "lit":
        return node[1]
    if kind == "L":
        return x
    if kind == "A":
        return x ** node[1]
    if kind == "P":
        return sum(x ** i for i in range(node[1] + 1))
    if kind == "Gr":
        return gaussian_binomial(node[2], node[1], x)
    if kind == "Hilb":
        return hilb_p2_value(node[1], x)
    if kind == "Lin":
        return _atom_value(("P", node[1] * (node[1] + 3) // 2), x)
    if kind == "C":
        # the universal curve fibres over the plane with fibre P^(d(d+3)/2 - 1)
        return _atom_value(("P", 2), x) * _atom_value(("P", node[1] * (node[1] + 3) // 2 - 1), x)
    if kind == "Omega13":
        # triples on a line: a P^3-bundle over the space of lines
        return _atom_value(("P", 2), x) * _atom_value(("P", 3), x)
    raise ValueError(f"not a tree node: {node!r}")


def tree_value(node, x: int) -> int:
    """Value of the tree's class at L = x.  Sym uses Newton's identity
    n sigma_n = sum_{k=1..n} X(x^k) sigma_{n-k}, the point-count form of the
    zeta function of a symmetric power."""
    kind = node[0]
    if kind == "sum":
        return sum(tree_value(t, x) for t in node[1])
    if kind == "diff":
        return tree_value(node[1], x) - tree_value(node[2], x)
    if kind == "prod":
        out = 1
        for t in node[1]:
            out *= tree_value(t, x)
        return out
    if kind == "pow":
        return tree_value(node[1], x) ** node[2]
    if kind == "sym":
        n, inner = node[1], node[2]
        power_sums = [tree_value(inner, x ** k) for k in range(1, n + 1)]
        sigma = [1]
        for m in range(1, n + 1):
            total = sum(power_sums[k - 1] * sigma[m - k] for k in range(1, m + 1))
            if total % m:
                raise ArithmeticError(f"Newton's identity left a remainder at order {m}")
            sigma.append(total // m)
        return sigma[n]
    return _atom_value(node, x)


def tree_euler(node) -> int:
    """Euler number (value at L = 1), with Sym n(X) taken as C(chi + n - 1, n)."""
    kind = node[0]
    if kind == "sum":
        return sum(tree_euler(t) for t in node[1])
    if kind == "diff":
        return tree_euler(node[1]) - tree_euler(node[2])
    if kind == "prod":
        out = 1
        for t in node[1]:
            out *= tree_euler(t)
        return out
    if kind == "pow":
        return tree_euler(node[1]) ** node[2]
    if kind == "sym":
        chi = tree_euler(node[2])
        return comb(chi + node[1] - 1, node[1])
    return _atom_value(node, 1)


def tree_degree(node) -> int:
    """Degree by the parse-tree rules: P n / A n -> n, Gr(k,n) -> k(n-k),
    Hilb n -> 2n, X^k -> k deg X, Sym n(X) -> n deg X, sums take the maximum
    and products add.  Exact for the trees of the corpus, whose differences
    subtract only lower-degree terms, so no leading term cancels."""
    kind = node[0]
    if kind == "lit":
        return 0
    if kind == "L":
        return 1
    if kind in ("A", "P"):
        return node[1]
    if kind == "Gr":
        return node[1] * (node[2] - node[1])
    if kind == "Hilb":
        return 2 * node[1]
    if kind == "Lin":
        return node[1] * (node[1] + 3) // 2
    if kind == "C":
        return 2 + node[1] * (node[1] + 3) // 2 - 1
    if kind == "Omega13":
        return 5
    if kind == "sum":
        return max(tree_degree(t) for t in node[1])
    if kind == "diff":
        return tree_degree(node[1])
    if kind == "prod":
        return sum(tree_degree(t) for t in node[1])
    if kind == "pow":
        return node[2] * tree_degree(node[1])
    if kind == "sym":
        return node[1] * tree_degree(node[2])
    raise ValueError(f"not a tree node: {node!r}")


# -- rendered classes ---------------------------------------------------------------

def parse_class_text(text: str) -> list[int]:
    """Coefficients of a class printed as '1 + 2*L - L^3' (ascending)."""
    text = text.strip()
    if text == "0":
        return []
    coeffs: dict[int, int] = {}
    sign = 1
    for token in text.split():
        if token in ("+", "-"):
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -1, token[1:]
        mag, _, power = token.rpartition("*") if "*" in token else ("1", "", token)
        if power.startswith("L"):
            exp = int(power[2:]) if power.startswith("L^") else 1
        else:
            mag, exp = power, 0
        coeffs[exp] = coeffs.get(exp, 0) + sign * int(mag)
        sign = 1
    out = [0] * (max(coeffs) + 1)
    for exp, c in coeffs.items():
        out[exp] = c
    return out
