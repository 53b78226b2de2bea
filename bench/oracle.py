"""Independent reference values for every benchmark request.

Nothing here imports archpi.  Pi comes from Machin's formula in integer
arithmetic; sines, tangents and arcsines come from mpmath at 50 digits.
Each ``check_*`` function takes a request's parsed JSON report and returns a
list of problems; an empty list means the report agrees with the oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List

DPS = 50


def machin_pi_digits(count: int) -> str:
    """First ``count`` decimal digits of pi (truncated), as "3.1415...".

    pi/4 = 4 atan(1/5) - atan(1/239); each arctangent series is evaluated in
    scaled integers with twelve guard digits that absorb both truncation
    tails.
    """
    guard = 12
    scale = 10 ** (count + guard)

    def atan_inv(x: int) -> int:
        total, k, x_sq = 0, 0, x * x
        term = scale // x
        while term:
            total += -term if k & 1 else term
            k += 1
            term = scale // (x_sq ** k * x * (2 * k + 1))
        return total

    digits = str(4 * (4 * atan_inv(5) - atan_inv(239)))[:count]
    return digits[0] + "." + digits[1:] if count > 1 else digits


def _pair(values) -> tuple:
    lo, hi = (Fraction(v) for v in values)
    return lo, hi


class Oracle:
    def __init__(self, max_digits: int):
        self.digits = machin_pi_digits(max(max_digits, 62))
        # exact rational bounds pi_lo < pi < pi_hi, 10**-60 apart
        self.pi_lo = Fraction(int(self.digits[:62].replace(".", "")), 10 ** 60)
        self.pi_hi = self.pi_lo + Fraction(1, 10 ** 60)
        self._mp = None

    @property
    def mp(self):
        # mpmath is imported on first use, after the timed phase, so that it
        # neither counts as set-up nor sits in the measured peak memory
        if self._mp is None:
            import mpmath

            mpmath.mp.dps = DPS
            self._mp = mpmath
        return self._mp

    def _contains(self, pair, ref) -> bool:
        mp = self.mp
        return mp.mpf(pair[0]) <= ref <= mp.mpf(pair[1])

    # -- per command ----------------------------------------------------------

    def check_digits(self, argv: List[str], report: dict) -> List[str]:
        count = int(argv[argv.index("--count") + 1])
        expected = self.digits[: count + 1] if count > 1 else self.digits[:1]
        if report.get("digits") != expected:
            return ["digits differ from Machin pi"]
        return []

    def check_circuit(self, argv: List[str], report: dict) -> List[str]:
        problems = []
        meas = report["measures"]
        pi_lo, pi_hi = self.pi_lo, self.pi_hi
        cap = Fraction(1, 2 ** int(argv[argv.index("--mesh-cap-exp") + 1]))
        p_in, p_circ = _pair(meas["perimeter_in"]), _pair(meas["perimeter_circ"])
        a_in, a_circ = _pair(meas["area_in"]), _pair(meas["area_circ"])
        if not p_in[1] < 2 * pi_lo or not 2 * pi_hi < p_circ[0]:
            problems.append("circuit perimeters do not sandwich 2*pi")
        if not a_in[1] < pi_lo or not pi_hi < a_circ[0]:
            problems.append("circuit areas do not sandwich pi")
        if not _pair(meas["mesh"])[0] < cap:
            problems.append("circuit mesh is not below its cap")
        if report["points"] < 3:
            problems.append("circuit has fewer than 3 points")
        return problems

    def check_trig(self, argv: List[str], report: dict) -> List[str]:
        mp = self.mp
        theta = Fraction(argv[argv.index("--theta") + 1])
        t = mp.mpf(theta.numerator) / theta.denominator
        (row,) = report["rows"]
        problems = []
        if not self._contains(row["theta"], t):
            problems.append("trig theta enclosure misses theta")
        if not self._contains(row["mid"], t / mp.sin(t)):
            problems.append("trig mid misses theta/sin(theta)")
        if not self._contains(row["upper"], 1 / mp.cos(t)):
            problems.append("trig upper misses 1/cos(theta)")
        if row["lower_verdict"] != "certainly_less" or row["upper_verdict"] != "certainly_less":
            problems.append("trig sandwich verdict not certain")
        return problems

    def check_sweep(self, argv: List[str], report: dict) -> List[str]:
        mp = self.mp
        max_n = int(argv[argv.index("--max-n") + 1])
        pairs = [
            (k, n) for n in range(3, max_n + 1) for k in range(1, n)
            if 2 * k < n and math.gcd(k, n) == 1
        ]
        rows = report["rows"]
        if [(r["k"], r["N"]) for r in rows] != pairs:
            return ["rows are not the coprime pairs"]
        problems = []
        for r in rows:
            k, n = r["k"], r["N"]
            x = mp.pi * k / n
            chord = 2 * mp.sin(x)
            if not self._contains(r["chord"], chord):
                problems.append(f"sweep ({k},{n}) chord misses 2 sin(pi k/N)")
            if not self._contains(r["inscribed"], chord * n / k):
                problems.append(f"sweep ({k},{n}) inscribed length off")
            if not self._contains(r["circumscribed"], 2 * mp.tan(x) * n / k):
                problems.append(f"sweep ({k},{n}) circumscribed length off")
            if r["winding"] != k:
                problems.append(f"sweep ({k},{n}) winding {r['winding']} != {k}")
        return problems

    def check_verify(self, argv: List[str], report: dict) -> List[str]:
        mp = self.mp
        suite = argv[1]
        problems = []
        if report["violations"] or report["inconclusive"] or not report["rows"]:
            problems.append(f"{suite}: violated, inconclusive or empty")
        for row in report["rows"]:
            if row.get("status") != "ok":
                problems.append(f"{suite}: row status {row.get('status')}")
            c_lo, c_hi = (mp.mpf(v) for v in row["arc_chord"])
            if c_lo != c_hi:
                problems.append(f"{suite}: sampled arc chord is not exact")
                continue
            m, n = row["m"], row["n"]
            half_arc = mp.asin(c_lo / 2)
            if suite == "chord-compare":
                lhs = n * 2 * mp.sin(m * half_arc / n)
                rhs = m * c_lo
                ordered = rhs < lhs
            else:
                lhs = n * 2 * mp.tan(m * half_arc / n)
                rhs = m * 2 * mp.tan(half_arc)
                ordered = lhs < rhs
            if not self._contains(row["lhs"], lhs):
                problems.append(f"{suite} n={n} m={m}: lhs misses reference")
            if not self._contains(row["rhs"], rhs):
                problems.append(f"{suite} n={n} m={m}: rhs misses reference")
            if not ordered:
                problems.append(f"{suite} n={n} m={m}: reference order differs")
        return problems

    def check(self, argv: List[str], report: dict) -> List[str]:
        return {
            "digits": self.check_digits,
            "circuit": self.check_circuit,
            "trig": self.check_trig,
            "sweep-rational": self.check_sweep,
            "verify": self.check_verify,
        }[argv[0]](argv, report)
