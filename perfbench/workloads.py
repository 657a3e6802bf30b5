"""Seeded request streams and output checks for the benchmark workloads.

A stream is an endless sequence of blocks, and a block is a list of argv
lists for ``etainv.cli.main``.  Every block covers the same k bands in a
seeded order, so the request mix, and with it each latency quantile, depends
little on the seed.  The same (workload, seed) always gives the same blocks.

The checks read each output back and test it by routes that do not go
through the ring computation that produced it.  They run after the timed
window.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

WORKLOADS = ("sweep", "oneshot", "poly", "verify")

# Nine consecutive odd t hold exactly three multiples of 3, and every s below has
# odd part a power of 3, so each family request has six valid and three invalid
# rows: its cost depends on k alone.  k = 6 comes twice so that the block size is
# odd and the median falls inside one k rather than between two.
SWEEP_KS = (3, 4, 5, 6, 6, 7, 8)
SWEEP_S = (6, 12, 18, 24, -6, -12, -18, -24)
SWEEP_T_COUNT = 9

ONESHOT_KS = (2, 4, 8, 12, 16)
ONESHOT_COHOMOLOGY_PER_BLOCK = 2

# Five k values in the middle and top bands put the median and the tail inside one k;
# each band deals its k values from a reshuffled deck, so every k comes equally often.
POLY_K_BANDS = ((2, 6), (7, 11), (12, 16), (17, 19), (20, 24))
POLY_CANDIDATES = 6

VERIFY_ARGV = ["verify", "--suite", "paper"]

# The latency tail reported per workload: a percentile that keeps at least ten
# requests beyond it in a 20 s window (about 85 sweep, 230 oneshot, 160 poly and
# 25 verify requests) and falls inside one k, not between two.
TAIL_PERCENTILE = {"sweep": 80, "oneshot": 90, "poly": 90, "verify": 60}


def _odd(rng: random.Random, bound: int) -> int:
    """Odd integer in [-bound, bound]; bound is odd."""
    return rng.randrange(-bound, bound + 1, 2)


def _even_nonzero(rng: random.Random, bound: int) -> int:
    s = 2 * rng.randint(1, bound // 2)
    return s if rng.random() < 0.5 else -s


def _sweep_block(rng: random.Random) -> list[list[str]]:
    block = []
    for k in rng.sample(SWEEP_KS, len(SWEEP_KS)):
        t_min = _odd(rng, 15)
        block.append([
            "family", "-k", str(k), "-c", str(_odd(rng, 9)), "-s", str(rng.choice(SWEEP_S)),
            "--t-min", str(t_min), "--t-max", str(t_min + 2 * (SWEEP_T_COUNT - 1)),
            "--t-step", "2", "--format", "json",
        ])
    return block


def _oneshot_block(rng: random.Random, seen: set) -> list[list[str]]:
    kinds = list(ONESHOT_KS) + ["cohomology"] * ONESHOT_COHOMOLOGY_PER_BLOCK
    block = []
    for kind in rng.sample(kinds, len(kinds)):
        if kind == "cohomology":
            block.append(["cohomology", "-k", str(rng.randint(2, 16)),
                          "-s", str(_even_nonzero(rng, 30)), "--format", "json"])
            continue
        while True:
            c, s, t = _odd(rng, 99), _even_nonzero(rng, 20), _odd(rng, 99)
            if math.gcd(s, t) == 1 and (kind, c, s, t) not in seen:
                break
        seen.add((kind, c, s, t))
        block.append(["compute", "-k", str(kind), "-c", str(c), "-s", str(s), "-t", str(t),
                      "--format", "json"])
    return block


def _deal(rng: random.Random, deck: list, lo: int, hi: int) -> int:
    if not deck:
        deck.extend(rng.sample(range(lo, hi + 1), hi + 1 - lo))
    return deck.pop()


def _poly_block(rng: random.Random, decks: dict) -> list[list[str]]:
    block = []
    for lo, hi in POLY_K_BANDS:
        deck = decks.setdefault((lo, hi), [])
        block.append(["a1-poly", "-k", str(_deal(rng, deck, lo, hi)), "--format", "json"])
        candidates = []
        while len(candidates) < POLY_CANDIDATES:
            s = _even_nonzero(rng, 40)
            if s not in candidates:
                candidates.append(s)
        # the '=' form lets the list start with a minus sign
        block.append(["find-s", "-k", str(_deal(rng, deck, lo, hi)),
                      "--s-candidates=" + ",".join(map(str, candidates)), "--format", "json"])
    rng.shuffle(block)
    return block


def blocks(workload: str, seed: int):
    """Endless seeded stream of request blocks.

    The verify suite is fixed, so on ``verify`` the seed changes nothing.
    """
    rng = random.Random(f"{workload}:{seed}")
    seen: set = set()
    decks: dict = {}
    while True:
        if workload == "sweep":
            yield _sweep_block(rng)
        elif workload == "oneshot":
            yield _oneshot_block(rng, seen)
        elif workload == "poly":
            yield _poly_block(rng, decks)
        elif workload == "verify":
            yield [list(VERIFY_ARGV)]
        else:
            raise ValueError(f"unknown workload {workload!r}")


def result_count(argv: list[str], stdout: str) -> int:
    """Results a request emitted: eta rows, a table, a polynomial, a list, or PASS lines."""
    if argv[0] == "family":
        return sum("error" not in row for row in json.loads(stdout)["rows"])
    if argv[0] == "verify":
        return sum(line.startswith("PASS") for line in stdout.splitlines())
    return 1


class Oracle:
    """Independent reference values, computed once per key and outside the timed window."""

    def __init__(self):
        from etainv import invariants, verify

        self._invariants = invariants
        self._verify = verify
        self._a1 = {}
        self._polys = {}

    def a1(self, k: int, s: int) -> Fraction:
        """A1 by the residue route, which never touches the cohomology ring."""
        if (k, s) not in self._a1:
            self._a1[k, s] = Fraction(self._invariants.a1_residue(k, s))
        return self._a1[k, s]

    def poly(self, k: int) -> list[Fraction]:
        if k not in self._polys:
            self._polys[k] = [Fraction(x) for x in self._invariants.a1_poly_in_s(k).to_strings()]
        return self._polys[k]

    def suite_size(self) -> int:
        return len(self._verify.PAPER_SUITE)


def _horner(coeffs: list[Fraction], x: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _check_eta_row(row: dict, k: int, c: int, s: int, t: int, oracle: Oracle) -> str | None:
    if (row["k"], row["c"], row["s"], row["t"]) != (k, c, s, t):
        return f"row echoes {(row['k'], row['c'], row['s'], row['t'])}, asked {(k, c, s, t)}"
    a, eta, a0, a1 = (Fraction(row[key]) for key in ("a_value", "eta_rel", "A0", "A1"))
    if eta != -2 * a:
        return f"eta_rel {eta} != -2 * a_value {a}"
    if a != a0 - a1 * t:
        return f"a_value {a} != A0 - A1*t at t={t}"
    if a1 != oracle.a1(k, s):
        return f"A1 {a1} != a1_residue({k}, {s}) = {oracle.a1(k, s)}"
    if row["sign_convention"] != "PLUS":
        return f"sign_convention {row['sign_convention']!r}"
    return None


def _check_family(opts: dict, d: dict, oracle: Oracle) -> str | None:
    k, c, s = int(opts["-k"]), int(opts["-c"]), int(opts["-s"])
    ts = list(range(int(opts["--t-min"]), int(opts["--t-max"]) + 1, int(opts["--t-step"])))
    rows = d["rows"]
    if [row["t"] for row in rows] != ts:
        return "rows do not follow the requested t range"
    valid = 0
    for row, t in zip(rows, ts):
        if t % 2 == 0 or math.gcd(s, t) != 1:
            if "error" not in row:
                return f"t={t} violates the standing assumptions but has no error"
            continue
        valid += 1
        if "error" in row:
            return f"t={t}: unexpected error {row['error']!r}"
        problem = _check_eta_row(row, k, c, s, t, oracle)
        if problem:
            return f"t={t}: {problem}"
    if d["distinct_count"] != valid:
        return f"distinct_count {d['distinct_count']} != {valid} valid rows"
    return None


def _check_cohomology(opts: dict, d: dict) -> str | None:
    k, s = int(opts["-k"]), int(opts["-s"])
    z = {"free_rank": 1, "torsion": []}
    expected = [{"free_rank": 0, "torsion": []} for _ in range(4 * k + 2)]
    for degree in (0, 2, 4 * k - 1, 4 * k + 1):
        expected[degree] = z
    for i in range(2, 2 * k):
        expected[2 * i] = {"free_rank": 0, "torsion": [s * s]}
    if (d["k"], d["s"]) != (k, s):
        return f"echoes (k, s) = {(d['k'], d['s'])}"
    if d["h4_quotient_order"] != 4 * s * s:
        return f"h4 order {d['h4_quotient_order']} != 4s^2 = {4 * s * s}"
    if d["table"] != expected:
        return "table is not Z, 0, Z, 0, Z_{s^2}, ..., Z_{s^2}, Z, 0, Z"
    return None


def _check_a1_poly(opts: dict, d: dict) -> str | None:
    k = int(opts["-k"])
    coeffs = [Fraction(x) for x in d["coeffs"]]
    if d["k"] != k or d["variable"] != "s":
        return f"echoes k={d['k']}, variable={d['variable']!r}"
    if len(coeffs) > 2 * k:
        return f"degree {len(coeffs) - 1} > 2k-1 = {2 * k - 1}"
    if any(coeffs[0::2]):
        return "even-degree coefficient is nonzero"
    if _horner(coeffs, 2) != Fraction((-1) ** (k - 1) * k, 2 ** (k + 1)):
        return f"A1(2) = {_horner(coeffs, 2)} != (-1)^(k-1) k / 2^(k+1)"
    return None


def _check_find_s(opts: dict, d: dict, oracle: Oracle) -> str | None:
    k = int(opts["-k"])
    candidates = [int(x) for x in opts["--s-candidates"].split(",")]
    good = [s for s in candidates if _horner(oracle.poly(k), s)]
    if d["k"] != k or d["candidates"] != candidates:
        return "echoes a different k or candidate list"
    if d["good_s"] != good:
        return f"good_s {d['good_s']} != {good} from evaluating A1(s)"
    return None


def _check_verify(stdout: str, oracle: Oracle) -> str | None:
    lines = stdout.splitlines()
    if len(lines) != oracle.suite_size() or len(lines) < 10:
        return f"{len(lines)} lines for a suite of {oracle.suite_size()} criteria"
    failing = [line for line in lines if not line.startswith("PASS")]
    return f"not PASS: {failing[0]}" if failing else None


def check(argv: list[str], code, stdout: str, oracle: Oracle) -> str | None:
    """None when the request exited 0 and its output is right, else what is wrong."""
    if code != 0:
        return f"exit code {code}"
    command = argv[0]
    if command == "verify":
        return _check_verify(stdout, oracle)
    opts = {}
    tokens = iter(argv[1:])
    for token in tokens:
        key, eq, value = token.partition("=")
        opts[key] = value if eq else next(tokens)
    d = json.loads(stdout)
    if command == "family":
        return _check_family(opts, d, oracle)
    if command == "compute":
        return _check_eta_row(d, int(opts["-k"]), int(opts["-c"]), int(opts["-s"]),
                              int(opts["-t"]), oracle)
    if command == "cohomology":
        return _check_cohomology(opts, d)
    if command == "a1-poly":
        return _check_a1_poly(opts, d)
    if command == "find-s":
        return _check_find_s(opts, d, oracle)
    return f"no check for command {command!r}"
