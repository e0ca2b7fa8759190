"""Seeded corpus of ideal files and the job list of each workload.

Stdlib only, and independent of the program under test, so the bytes of the
corpus depend on the seed alone.

The random 3-variable ideals are drawn once, by degree pattern, with the
recipe of the test suite (coefficients in [-3, 3], density 0.7), from a fixed
base seed.  The workload seed then applies a random diagonal change of
coordinates to every ideal: signs over Q, units over GF(32003).  Random draws
alone differ in cost by two orders of magnitude (a two-quadric ideal takes
0.03 s or 2 s in ``circuits --trunc 4``), so runs with different seeds could
not be compared.  A diagonal change keeps every support, every pivot and every
coefficient size, so each seed costs the same work while the program gets
different input files.
"""
from __future__ import annotations

import os
import random
from itertools import combinations_with_replacement

P = 32003
DENSITY = 0.7
BOUND = 3
BASE_SEED = 2029
VARS3 = ("x", "y", "z")

WORKLOADS = ("circuits", "generic", "groebner", "fan")

# Commands whose output depends only on supports, which a diagonal change
# keeps: their golden hashes hold for every seed.
SEED_INVARIANT_COMMANDS = frozenset({"circuits", "fan-cell"})


def monomials(n: int, d: int) -> list:
    """Exponent tuples of degree d in n variables, in descending lex order."""
    out = []
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out, reverse=True)


def random_homogeneous(n: int, d: int, rng: random.Random) -> dict:
    """Nonzero homogeneous polynomial {exponent: int} by the suite recipe."""
    monos = monomials(n, d)
    while True:
        terms = {}
        for m in monos:
            if rng.random() < DENSITY:
                c = rng.randint(-BOUND, BOUND)
                if c:
                    terms[m] = c
        if terms:
            return terms


def cyclic(n: int):
    """Homogenized cyclic-n: n variables plus the homogenizing h."""
    names = tuple(f"x{i}" for i in range(n)) + ("h",)
    polys = []
    for k in range(1, n):
        f = {}
        for i in range(n):
            e = [0] * (n + 1)
            for j in range(k):
                e[(i + j) % n] += 1
            f[tuple(e)] = f.get(tuple(e), 0) + 1
        polys.append(f)
    top = tuple([1] * n + [0])
    polys.append({top: 1, tuple([0] * n + [n]): -1})
    return names, polys


def katsura(n: int):
    """Homogenized katsura-n: variables u0..un plus the homogenizing h."""
    nv = n + 2
    names = tuple(f"u{i}" for i in range(n + 1)) + ("h",)

    def unit(*idx):
        e = [0] * nv
        for i in idx:
            e[i] += 1
        return tuple(e)

    polys = []
    for m in range(n):
        f = {}
        for l in range(-n, n + 1):
            a, b = abs(l), abs(m - l)
            if b <= n:
                key = unit(a, b)
                f[key] = f.get(key, 0) + 1
        key = unit(m, n + 1)
        f[key] = f.get(key, 0) - 1
        polys.append({k: c for k, c in f.items() if c})
    lin = {unit(0): 1, unit(n + 1): -1}
    for l in range(1, n + 1):
        lin[unit(l)] = 2
    polys.append(lin)
    return names, polys


def _scaled(poly: dict, scales, modulus) -> dict:
    out = {}
    for m, c in poly.items():
        for s, e in zip(scales, m):
            c *= s**e
        out[m] = c % modulus if modulus else c
    return out


def _poly_text(poly: dict, names) -> str:
    pieces = []
    for m in sorted(poly, reverse=True):
        c = poly[m]
        factors = [
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, m) if e
        ]
        body = "*".join([str(abs(c))] + factors)
        sign = "-" if c < 0 else "+"
        pieces.append(f"{sign} {body}")
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def ideal_text(seed: int, name: str, names, polys, modulus=None) -> str:
    """File text of an ideal after the seed's diagonal change."""
    rng = random.Random(f"{seed}:{name}")
    if modulus:
        scales = [rng.randrange(1, modulus) for _ in names]
    else:
        scales = [rng.choice((-1, 1)) for _ in names]
    field = f"GF({modulus})" if modulus else "Q"
    lines = [f"ring: {field}; vars: {','.join(names)}", "gens:"]
    lines += [_poly_text(_scaled(f, scales, modulus), names) for f in polys]
    return "\n".join(lines) + "\n"


def _draw(workload: str, patterns) -> list:
    rng = random.Random(f"{BASE_SEED}:{workload}")
    return [[random_homogeneous(3, d, rng) for d in pat] for pat in patterns]


def build(workload: str, seed: int):
    """Return (files, jobs): {file name: text} and [(job name, argv)]."""
    files = {}
    jobs = []

    def add(name, names, polys, modulus=None):
        files[name] = ideal_text(seed, name, names, polys, modulus)
        return name

    def pair(tag, names, polys, with_gf):
        out = [add(f"{tag}.q.ideal", names, polys)]
        if with_gf:
            out.append(add(f"{tag}.gf.ideal", names, polys, P))
        return out

    if workload == "circuits":
        ideals = _draw(workload, [(2, 2)] * 3 + [(2, 3)] * 2)
        for i, polys in enumerate(ideals):
            for p in pair(f"c{i}", VARS3, polys, True):
                jobs.append((f"{p}@3", ["circuits", p, "--trunc", "3"]))
        # degree 4 only where it takes under a second: c0 and c3 take 1.5-2 s
        # over Q, and a pass that long leaves each job too few samples
        for i in (1, 2, 4):
            p = f"c{i}.q.ideal"
            jobs.append((f"{p}@4", ["circuits", p, "--trunc", "4"]))
    elif workload == "generic":
        ideals = _draw(workload, [(2, 2), (2, 2), (2, 3), (2, 2, 2), (1, 3)])
        for i, polys in enumerate(ideals[:3]):
            for p in pair(f"g{i}", VARS3, polys, True):
                jobs.append((p, ["gcs", p, "--trunc", "3", "--seed", "7"]))
        # fan-compare on ideals whose bases stay small (lex bound 4 and 3):
        # a pair of quadrics also has lex bound 4 but takes 9 s, a single
        # sample per run that no reference timing between jobs can correct
        for i, polys in enumerate(ideals[3:], 3):
            (p,) = pair(f"g{i}", VARS3, polys, False)
            jobs.append(
                (f"{p}~{p}", ["fan-compare", p, "--other", p, "--mode", "generic"])
            )
    elif workload == "groebner":
        # bases of at most 0.7 s each: cyclic-5 over Q and GF(p) and
        # katsura-5 over Q take 1.3-1.6 s, too long for enough samples a run
        systems = (("cyclic4", cyclic(4)), ("katsura3", katsura(3)), ("katsura4", katsura(4)))
        for tag, (names, polys) in systems:
            for p in pair(tag, names, polys, True):
                jobs.append((p, ["gb", p, "--order", "drl"]))
                if tag == "katsura4":
                    jobs.append((f"{p}@w", ["gb", p, "--order", "w:3,2,1,0,0,0;tie=drl"]))
        p = add("katsura5.gf.ideal", *katsura(5), P)
        jobs.append((p, ["gb", p, "--order", "drl"]))
    elif workload == "fan":
        ideals = _draw(workload, [(2, 2), (2, 3)] * 5)
        for i, polys in enumerate(ideals):
            (p,) = pair(f"f{i}", VARS3, polys, False)
            jobs += [
                (f"{p}:fan-enum", ["fan-enum", p, "--box", "4"]),
                (f"{p}:ugb", ["ugb", p, "--box", "3"]),
                (f"{p}:stab", ["stab", p, "--weight", "2,1,0"]),
                (f"{p}:fan-cell", ["fan-cell", p, "--weight", "3,1,0"]),
                (f"{p}:inw", ["inw", p, "--weight", "3,2,0"]),
            ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return files, [(name, ["--no-timestamp"] + argv) for name, argv in jobs]


def write(files: dict, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(text)
